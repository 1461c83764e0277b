package allocation

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/greenps/greenps/internal/bitvector"
)

// feasEngine answers CRAM's allocation-feasibility probes ("does the pool
// still BIN-PACK with these units removed and that merged unit added?")
// by replaying first-fit packing over the committed pool. A probe replays
// nearly the whole pool — the merged unit it adds is heavy and inserts near
// the front of the bandwidth-descending order, so the earliest modified
// position is usually small: 7,083 of the pool's units per probe on the
// 20,000-subscription scale workload (seed 1; 7,419 probes, 52.5M
// placements), 10.6M placements in one 8,000-subscription plan. What keeps
// that affordable is the cost of a placement, counted on those two
// workloads:
//
//  1. The replay is flat. reset compiles the committed pool into one
//     contiguous []packUnit (bandwidth, memoized input load, filter count,
//     class and publisher-indexed vector list per position), removed units
//     are a sorted position list walked alongside it, and the broker states
//     are a reusable scratch pack restored in place from a checkpoint — no
//     map lookup, no Unit or Profile dereference and, in the steady state,
//     no allocation.
//  2. Most broker tests are decided without vector arithmetic (packing.go).
//     A placement tries ~17 brokers on the 8k plan and ~8 on the 20k pool
//     before one admits the unit; the 8k plan's leading brokers are
//     rate-saturated and cost one comparison each (152M of 177M fits calls),
//     the 20k pool's are out of bandwidth (372M of 424M). Of the calls that
//     get as far as the intersect load, the run memo answers 2.6M and 29.6M
//     — the pool is runs of identical compiled content, 1,634 distinct
//     contents among the 20k pool's units — and 21.7M and 22.9M walk
//     AndCount over the unit's publishers: two walks per placement on the 8k
//     plan, less than one in two on the 20k pool. accept skips its OR walk
//     for 3.1M of 10.6M and 37.2M of 52.5M placements.
//  3. First-fit packing is prefix-deterministic: the broker states after
//     placing the first i units depend only on those i units. A probe's
//     unit stream is identical to the committed base pool up to the
//     earliest modified position p (the first removed unit or the added
//     unit's insertion point), so packing resumes from a checkpoint of the
//     base prefix instead of replaying from unit 0. Checkpoints are
//     recorded opportunistically by any probe still inside its unmodified
//     region, and after a commit those covering the unchanged prefix stay
//     valid. With p usually small they save little on these workloads.
//  4. Committed units carry their compiled form memoized on the Unit by
//     the CRAM coordinator (see Unit.packedFor), so concurrent probes pay
//     a plain field read and never write shared state for it.
//
// probe is safe for concurrent use (CRAM's speculative binary-search
// evaluation runs probes in parallel), and each probe can additionally
// split its own per-unit broker scans across a worker team (probeTeam);
// reset is not concurrency-safe and must be called from the coordinating
// goroutine only. Checkpoint scheduling can differ between runs or
// parallelism levels, but checkpointed resumption is exact, so probe
// results never depend on it.
type feasEngine struct {
	brokers  []*BrokerSpec
	table    *bitvector.PublisherTable
	capacity int

	// mu guards ckpts and scratch, the structures concurrent probes share
	// mutably.
	mu sync.Mutex
	// ckpts is ascending by pos and starts with the empty pack at pos 0;
	// states are immutable once stored.
	ckpts []feasCkpt
	// scratch holds the idle scratch packs, one per probe that has ever
	// run concurrently.
	scratch []*pack

	version int
	base    []*Unit    // the committed pool in BIN PACKING order
	stream  []packUnit // stream[i] is base[i] compiled
	every   int        // checkpoint spacing in units
}

// feasCkpt is a snapshot of the broker states after first-fit packing the
// first pos units of the base pool.
type feasCkpt struct {
	pos    int
	states []brokerState
}

// maxCkptBrokers bounds checkpoint memory: beyond this broker-pool size
// (e.g. the 1,000-broker SciNet scenarios) snapshots would dominate the
// heap, so probes fall back to full repacks — still correct, just not
// incremental.
const maxCkptBrokers = 256

func newFeasEngine(brokers []*BrokerSpec, t *bitvector.PublisherTable, capacity int) *feasEngine {
	return &feasEngine{
		brokers: brokers, table: t, capacity: capacity,
		ckpts: []feasCkpt{{pos: 0, states: newPack(brokers, t, capacity).states}},
	}
}

// reset points the engine at a new committed base pool, which must be in
// BIN PACKING order (unitBefore). Checkpoints whose positions lie within
// the longest unchanged prefix (compared by unit identity) remain valid
// and are kept, as is that prefix of the compiled stream; the rest is
// dropped and recompiled.
func (e *feasEngine) reset(base []*Unit, version int) {
	if e.base != nil && e.version == version {
		return
	}
	common := 0
	for common < len(base) && common < len(e.base) && base[common] == e.base[common] {
		common++
	}
	kept := e.ckpts[:0]
	for _, ck := range e.ckpts {
		if ck.pos <= common {
			kept = append(kept, ck)
		}
	}
	e.ckpts = kept
	e.stream = slices.Grow(e.stream[:common], len(base)-common)
	for _, u := range base[common:] {
		e.stream = append(e.stream, u.packedFor(e.table))
	}
	e.base = base
	e.version = version
	e.every = len(base) / 16
	if e.every < 64 {
		e.every = 64
	}
}

// poolPositions returns the ascending, duplicate-free positions of the
// given units in a pool held in BIN PACKING order, each found by binary
// search on that order and confirmed by identity; units not in the pool are
// ignored.
func poolPositions(pool []*Unit, units []*Unit) []int {
	pos := make([]int, 0, len(units))
	for _, u := range units {
		i := sort.Search(len(pool), func(i int) bool { return !unitBefore(pool[i], u) })
		if i < len(pool) && pool[i] == u {
			pos = append(pos, i)
		}
	}
	sort.Ints(pos)
	return slices.Compact(pos)
}

// recordCkpt stores a snapshot of the pack as the outcome of the base
// prefix [0, pos). Appends are monotone in pos so the list stays sorted; a
// concurrent probe that already recorded this far wins.
func (e *feasEngine) recordCkpt(pos int, pk *pack) {
	snap := pk.snapshot()
	e.mu.Lock()
	if e.ckpts[len(e.ckpts)-1].pos < pos {
		e.ckpts = append(e.ckpts, feasCkpt{pos: pos, states: snap})
	}
	e.mu.Unlock()
}

// probe reports whether the base pool with the given hypothetical
// modification still first-fit packs onto the broker pool: removed units
// are skipped, added units are merged into the bandwidth-descending
// stream, each ahead of the first base unit of strictly lower bandwidth.
// The answer is that of packing the probe's stream from scratch; only the
// amount of replayed work differs. The stream is NOT always the BIN
// PACKING order of the modified pool: an added unit whose bandwidth ties
// with base units goes after all of them, where unitBefore — the order
// the pool takes once the change is committed — breaks the tie by ID. The
// two orders can pack differently, so a probe vouches for its own stream
// only (ROADMAP item 4 records the divergence; TestProbeBandwidthTieOrder
// pins the behaviour).
//
// workers parallelizes the per-unit broker scan *inside* this one probe
// (see probeTeam); 1 or less runs the scan serially. The placement — and
// therefore the answer — is identical at any worker count.
func (e *feasEngine) probe(removed, added []*Unit, workers int) bool {
	rem := poolPositions(e.base, removed)
	sorted := make([]*Unit, len(added))
	copy(sorted, added)
	sort.Slice(sorted, func(i, j int) bool { return unitBefore(sorted[i], sorted[j]) })
	add := make([]packUnit, len(sorted))
	for i, u := range sorted {
		add[i] = u.packedFor(e.table)
	}

	// Earliest position at which the probe's stream diverges from base.
	p := len(e.stream)
	if len(rem) > 0 {
		p = rem[0]
	}
	for i := range add {
		// First index whose bandwidth drops strictly below the added
		// unit's — the position replay inserts at.
		bw := add[i].load.Bandwidth
		at := sort.Search(len(e.stream), func(i int) bool { return e.stream[i].load.Bandwidth < bw })
		if at < p {
			p = at
		}
	}

	// Resume from the latest checkpoint at or before p, on a scratch pack
	// of this probe's own.
	var pk *pack
	e.mu.Lock()
	from := e.ckpts[0]
	for _, ck := range e.ckpts[1:] {
		if ck.pos <= p {
			from = ck
		}
	}
	lastCkpt := e.ckpts[len(e.ckpts)-1].pos
	if n := len(e.scratch); n > 0 {
		pk, e.scratch = e.scratch[n-1], e.scratch[:n-1]
	}
	e.mu.Unlock()
	if pk == nil {
		pk = newPack(e.brokers, e.table, e.capacity)
	}
	defer func() {
		e.mu.Lock()
		e.scratch = append(e.scratch, pk)
		e.mu.Unlock()
	}()
	pk.restore(from.states)

	var team *probeTeam
	if w := min(workers, len(pk.states)); w > 1 {
		team = newProbeTeam(pk, w)
		defer team.release()
	}
	return e.replay(pk, team, from.pos, p, lastCkpt, rem, add)
}

// replay first-fit packs stream[start:] onto pk with the probe's
// modifications merged in: rem lists the positions to skip, ascending; add
// the compiled units to insert, in stream order. p is the first modified
// position and lastCkpt the highest checkpointed one.
//
//greenvet:hotpath the feasibility replay loop: one iteration per replayed unit, ~7,000 per probe on the 20k pool
func (e *feasEngine) replay(pk *pack, team *probeTeam, start, p, lastCkpt int, rem []int, add []packUnit) bool {
	canCkpt := len(e.brokers) <= maxCkptBrokers
	ai := 0
	for i := start; i < len(e.stream); i++ {
		pu := &e.stream[i]
		// While still replaying the unmodified prefix (i <= p, so no add
		// has been flushed and no removal skipped), the states describe
		// the base pool itself — snapshot them for future probes.
		if canCkpt && i > start && i <= p && i > lastCkpt && i%e.every == 0 {
			e.recordCkpt(i, pk)
			lastCkpt = i
		}
		for ai < len(add) && add[ai].load.Bandwidth > pu.load.Bandwidth {
			if !place(pk, team, &add[ai]) {
				return false
			}
			ai++
		}
		if len(rem) > 0 && rem[0] == i {
			rem = rem[1:]
			continue
		}
		if !place(pk, team, pu) {
			return false
		}
	}
	for ; ai < len(add); ai++ {
		if !place(pk, team, &add[ai]) {
			return false
		}
	}
	return true
}

// place puts one unit on its first-fit broker: serially, or through the
// probe's worker team when it has one.
func place(pk *pack, team *probeTeam, pu *packUnit) bool {
	if team != nil {
		return team.place(pu)
	}
	return pk.place(pu) >= 0
}

// probeTeam parallelizes the broker scan of a single first-fit placement.
// Broker index b is owned by worker b mod W: each worker walks its own
// residue class in ascending order and reports the first broker there that
// admits the unit. The global first fit is the minimum over the workers'
// per-class first fits — exactly the broker the serial scan would pick —
// so worker count cannot change any placement. Between rounds only the
// coordinator touches broker state (one accept per placed unit), and the
// round/done atomics order every hand-off, so a worker never reads a
// broker while it is being mutated.
//
// Profile-guided design note: a serial placement is a scan of ~8–17 brokers
// of which all but one or two are rejected in O(1) (saturated, out of
// bandwidth, or the rate bound) and at most a couple walk the unit's
// vectors — ~100 ns in all on the recorded workloads — so a round
// (publish, cross-core hand-off, reduce) costs several times the scan it
// splits, and channel hand-offs would cost more still. The team pays only
// where a scan is long: many brokers that each need the walk. Waiters spin
// optimistically for a bounded budget — on a multi-core machine the partner
// is already running and answers within it — and park on a condition
// variable when the budget expires, which is the oversubscribed case (more
// workers than cores, or a descheduled partner) where continuing to spin
// would burn the very core the partner needs. The unbounded spin this
// replaces pessimized low-core machines so badly that the 1-CPU container
// measured parallel == serial. ROADMAP item 3 holds the measurements.
type probeTeam struct {
	pk *pack
	w  int

	// round is the publication sequence: the coordinator increments it
	// after writing pu, workers scan once per increment. stop ends the
	// workers' loop at the next increment. done counts workers finished
	// with the current round.
	round atomic.Int64
	done  atomic.Int64
	stop  atomic.Bool
	pu    *packUnit
	res   []placeResult

	// mu guards the two condition variables of the slow path: workers
	// park on roundCond awaiting the next round increment, the
	// coordinator parks on doneCond awaiting the round's last scan. The
	// predicates are the atomics above, always re-checked under mu, and
	// every signaller locks mu around its Broadcast after updating the
	// atomic — the monitor pattern that makes a lost wakeup impossible.
	mu        sync.Mutex
	roundCond *sync.Cond
	doneCond  *sync.Cond
}

// placeResult is one worker's first fit within its residue class, padded
// so neighbouring workers do not share a cache line while publishing.
type placeResult struct {
	broker int // -1 when nothing in the class admits the unit
	inter  bitvector.Load
	_      [40]byte
}

func newProbeTeam(pk *pack, w int) *probeTeam {
	t := &probeTeam{pk: pk, w: w, res: make([]placeResult, w)}
	t.roundCond = sync.NewCond(&t.mu)
	t.doneCond = sync.NewCond(&t.mu)
	for i := 1; i < w; i++ {
		//greenvet:goroutine-ok each round joins workers via the done counter in place(); release() terminates them through the round/stop protocol and is deferred on every probe exit path
		go t.worker(i)
	}
	return t
}

// spinBudget bounds the optimistic busy-wait before a waiter falls back
// to parking on its condition variable. ~4k iterations is tens of
// microseconds — several full placement rounds — so on an unloaded
// multi-core machine the slow path never triggers.
const spinBudget = 4096

// spinUntil busy-waits for cond for at most spinBudget iterations,
// yielding the processor regularly so oversubscribed schedules keep
// making progress, and reports whether cond held within the budget. On
// false the caller must fall back to a parked wait.
func spinUntil(cond func() bool) bool {
	for i := 0; i < spinBudget; i++ {
		if cond() {
			return true
		}
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
	return false
}

// scan finds worker i's first fit for the published unit.
func (t *probeTeam) scan(i int) {
	t.res[i].broker = -1
	for b := i; b < len(t.pk.states); b += t.w {
		if ok, inter := t.pk.states[b].fits(t.pu, t.pk.stats, t.pk.ratesOrdered); ok {
			t.res[i].broker = b
			t.res[i].inter = inter
			return
		}
	}
}

func (t *probeTeam) worker(i int) {
	for r := int64(1); ; r++ {
		if !spinUntil(func() bool { return t.round.Load() >= r }) {
			t.mu.Lock()
			for t.round.Load() < r {
				//greenvet:lock-ok Cond.Wait atomically releases mu while parked and reacquires before returning; holding it across Wait is the sync.Cond contract
				t.roundCond.Wait()
			}
			t.mu.Unlock()
		}
		if t.stop.Load() {
			return
		}
		t.scan(i)
		if t.done.Add(1) == int64(t.w-1) {
			// Last scan of the round: wake the coordinator if it parked.
			t.mu.Lock()
			t.doneCond.Broadcast()
			t.mu.Unlock()
		}
	}
}

// place runs one placement round: publish the unit, scan class 0 while
// the workers scan theirs, reduce to the global first fit, accept.
func (t *probeTeam) place(pu *packUnit) bool {
	t.pu = pu
	t.done.Store(0)
	t.round.Add(1)
	t.mu.Lock()
	t.roundCond.Broadcast()
	t.mu.Unlock()
	t.scan(0)
	want := int64(t.w - 1)
	if !spinUntil(func() bool { return t.done.Load() == want }) {
		t.mu.Lock()
		for t.done.Load() != want {
			//greenvet:lock-ok Cond.Wait atomically releases mu while parked and reacquires before returning; holding it across Wait is the sync.Cond contract
			t.doneCond.Wait()
		}
		t.mu.Unlock()
	}
	best := t.res[0].broker
	inter := t.res[0].inter
	for i := 1; i < t.w; i++ {
		if b := t.res[i].broker; b >= 0 && (best < 0 || b < best) {
			best = b
			inter = t.res[i].inter
		}
	}
	if best < 0 {
		return false
	}
	t.pk.states[best].accept(pu, inter, t.pk.capacity, t.pk.ratesOrdered)
	return true
}

// release ends the worker goroutines; the probe's deferred call runs it on
// every exit path, including infeasible early returns. The broadcast
// reaches workers parked on the round condition as well as spinning ones.
func (t *probeTeam) release() {
	t.stop.Store(true)
	t.round.Add(1)
	t.mu.Lock()
	t.roundCond.Broadcast()
	t.mu.Unlock()
}
