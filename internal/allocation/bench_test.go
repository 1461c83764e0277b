package allocation

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/poset"
)

// benchInput builds a 2,000-subscription pool against 40 brokers.
func benchInput(b *testing.B) *Input {
	b.Helper()
	units, pubs := testWorkload(1, 20, 100, 10, 100)
	// A gentler matching slope than stdDelay: the raw mixed pool must be
	// feasible (so every algorithm can run), while clustering still pays.
	delay := message.MatchingDelayFn{PerSub: 0.00005, Base: 0.001}
	in := &Input{
		Units:      units,
		Brokers:    testBrokers(40, 80_000, delay),
		Publishers: pubs,
	}
	if err := in.Validate(); err != nil {
		b.Fatal(err)
	}
	return in
}

func BenchmarkFBF2000(b *testing.B) {
	in := benchInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&FBF{Seed: int64(i)}).Allocate(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinPacking2000(b *testing.B) {
	in := benchInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&BinPacking{}).Allocate(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCRAM2000(b *testing.B) {
	for _, m := range []bitvector.Metric{bitvector.MetricIntersect, bitvector.MetricXor,
		bitvector.MetricIOS, bitvector.MetricIOU} {
		b.Run(m.String(), func(b *testing.B) {
			in := benchInput(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cram := &CRAM{Metric: m}
				a, err := cram.Allocate(in)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(a.NumAllocated()), "brokers")
					b.ReportMetric(float64(cram.Stats().ClosenessComputations), "closeness_comps")
				}
			}
		})
	}
}

func BenchmarkPairwise2000(b *testing.B) {
	in := benchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &Pairwise{Clusters: 40, Variant: "PAIRWISE-N", Seed: int64(i)}
		if _, err := p.Allocate(in); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInput8k builds the paper's largest homogeneous point: an
// 8,000-subscription pool (40 publishers x 200 subscriptions) against 160
// brokers — the E7/E8 workload the parallel speedup targets.
func benchInput8k(b *testing.B) *Input {
	b.Helper()
	units, pubs := testWorkload(1, 40, 200, 10, 100)
	delay := message.MatchingDelayFn{PerSub: 0.00005, Base: 0.001}
	in := &Input{
		Units:      units,
		Brokers:    testBrokers(160, 80_000, delay),
		Publishers: pubs,
	}
	if err := in.Validate(); err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkE7ComputationTime is the E7 reconfiguration-computation-time
// point at 8,000 subscriptions: CRAM-IOS with every optimization on,
// measured at Parallelism 1, 2, and 4. It asserts the results are
// bit-for-bit identical across levels, reports the speedup_4x metric, and
// fails if any worker count is more than 15% slower than the serial run:
// only the seed phase fans out, a few percent of the run, so extra workers
// can buy little, but they must not cost. The gate compares each level's
// fastest run, and a level that reads slow is measured once more back to
// back with the serial one first — a slow episode of a shared host is
// one-sided and does not repeat, a real cost does.
func BenchmarkE7ComputationTime(b *testing.B) {
	mk := func(par int) *CRAM { return &CRAM{Metric: bitvector.MetricIOS, Parallelism: par} }
	in := benchInput8k(b)
	var wallclock, fastest [3]time.Duration
	var fp [3]string
	var stats [3]CRAMStats
	pars := []int{1, 2, 4}
	measure := func(i int) time.Duration {
		cram := mk(pars[i])
		started := time.Now()
		a, err := cram.Allocate(in)
		if err != nil {
			b.Fatal(err)
		}
		d := time.Since(started)
		if fastest[i] == 0 || d < fastest[i] {
			fastest[i] = d
		}
		fp[i] = a.Fingerprint()
		stats[i] = cram.Stats()
		return d
	}
	for bi := 0; bi < b.N; bi++ {
		for i := range pars {
			wallclock[i] += measure(i)
		}
	}
	for i := 1; i < len(pars); i++ {
		if fp[i] != fp[0] {
			b.Fatalf("Parallelism=%d assignment differs from serial", pars[i])
		}
		if stats[i] != stats[0] {
			b.Fatalf("Parallelism=%d stats differ from serial:\n got %+v\nwant %+v",
				pars[i], stats[i], stats[0])
		}
	}
	b.ReportMetric(float64(wallclock[0])/float64(wallclock[2]), "speedup_4x")
	b.ReportMetric(float64(wallclock[0].Milliseconds())/float64(b.N), "serial_ms")
	b.ReportMetric(float64(wallclock[1].Milliseconds())/float64(b.N), "par2_ms")
	b.ReportMetric(float64(wallclock[2].Milliseconds())/float64(b.N), "par4_ms")
	for i := 1; i < len(pars); i++ {
		slow := func() bool { return float64(fastest[i]) > 1.15*float64(fastest[0]) }
		if slow() {
			measure(0)
			measure(i)
		}
		if slow() {
			b.Fatalf("Parallelism=%d is more than 15%% slower than serial on a %d-core machine (fastest serial %v, par%d %v)",
				pars[i], runtime.NumCPU(), fastest[0], pars[i], fastest[i])
		}
	}
}

// BenchmarkE8CRAMAblation is the E8 ablation grid on the 8k workload: each
// optimization switched off in turn, on one worker (the seed-phase fan-out
// is the same loop in every variant; E7 sweeps and gates it).
func BenchmarkE8CRAMAblation(b *testing.B) {
	variants := []struct {
		name string
		cram CRAM
	}{
		{"all-on", CRAM{Metric: bitvector.MetricIOS, Parallelism: 1}},
		{"no-one-to-many", CRAM{Metric: bitvector.MetricIOS, DisableOneToMany: true, Parallelism: 1}},
		{"exhaustive-search", CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true, Parallelism: 1}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			in := benchInput8k(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cram := v.cram
				a, err := cram.Allocate(in)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(a.NumAllocated()), "brokers")
					b.ReportMetric(float64(cram.Stats().ClosenessComputations), "closeness_comps")
				}
			}
		})
	}
}

// BenchmarkPartnerSearchPruned is the E8-shaped view of the exhaustive
// scan's summary-bound pruning: CRAM on the 2k workload with bounds on and
// off. It reports how many of the considered closeness evaluations the
// bounds answered (bound_pruned vs exact_evals) and asserts the pruned run
// produced a byte-identical plan with BoundPruned > 0. The poset search
// takes no bounds, so it has no subcase here.
func BenchmarkPartnerSearchPruned(b *testing.B) {
	in := benchInput(b)
	var prunedTime, exactTime time.Duration
	var st CRAMStats
	for i := 0; i < b.N; i++ {
		pruned := &CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true}
		started := time.Now()
		ap, err := pruned.Allocate(in)
		if err != nil {
			b.Fatal(err)
		}
		prunedTime += time.Since(started)
		exact := &CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true, disableBoundPruning: true}
		started = time.Now()
		ae, err := exact.Allocate(in)
		if err != nil {
			b.Fatal(err)
		}
		exactTime += time.Since(started)
		if ap.Fingerprint() != ae.Fingerprint() {
			b.Fatal("pruned plan differs from pruning-disabled plan")
		}
		st = pruned.Stats()
		if st.BoundPruned == 0 {
			b.Fatal("bound pruning never fired on the benchmark workload")
		}
	}
	b.ReportMetric(float64(st.BoundPruned), "bound_pruned")
	b.ReportMetric(float64(st.ClosenessComputations-st.BoundPruned), "exact_evals")
	b.ReportMetric(float64(prunedTime.Milliseconds())/float64(b.N), "pruned_ms")
	b.ReportMetric(float64(exactTime.Milliseconds())/float64(b.N), "unpruned_ms")
}

// BenchmarkCRAMParallelism times the part of a run Parallelism reaches —
// ingestion and the seed phase, on the 2k workload — serial and fanned out,
// for profiling the fan-out in isolation.
func BenchmarkCRAMParallelism(b *testing.B) {
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			in := benchInput(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cram := &CRAM{Metric: bitvector.MetricIOS, Parallelism: par}
				if _, err := cram.start(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFeasProbe isolates one feasibility probe of the 2k pool: its
// replay and the clear after it. The pool gets the fewest of benchInput's
// brokers it packs onto, 24, and opens every one, so the capacity
// certificate never holds; asked every certifyEvery positions, it runs to
// its bandwidth test or past it, so the benchmark times a replay with every
// question the certificate can cost it.
func BenchmarkFeasProbe(b *testing.B) {
	in := benchInput(b)
	p := poolOf(in.Units, in.Brokers[:24], newPublisherTable(in.Publishers, in.Units))
	ch := p.stage(nil, nil)
	if packs, placed := p.probe(ch); !packs || placed != p.size() || p.lone != 0 {
		b.Fatalf("probe = %v after %d of %d placements, %d lone units: the pool must pack, with no lone unit, and the whole stream replay",
			packs, placed, p.size(), p.lone)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if packs, _ := p.probe(ch); !packs {
			b.Fatal("pool must be feasible")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*p.size()), "ns/placement")
}

// BenchmarkPoolCommit times pool.commit where CRAM's commits land: a heavy
// merged unit — eight units from the middle of the pool — staged and
// committed at the front of a 20,000-unit pool and of a 200,000-unit one,
// then staged and committed back out, each stage-and-commit counted. A commit
// that moves only the blocks its change touches costs about the same at both
// sizes; one that shifts the stream behind the merged unit costs in
// proportion to the pool.
func BenchmarkPoolCommit(b *testing.B) {
	stock, pubs := testWorkload(1, 40, 500, 5, 200)
	table := newPublisherTable(pubs, stock)
	for _, n := range []int{20_000, 200_000} {
		b.Run(fmt.Sprintf("units=%d", n), func(b *testing.B) {
			units := make([]*Unit, n)
			for i := range units {
				u := *stock[i%len(stock)]
				u.ID = fmt.Sprintf("u%06d", i)
				units[i] = &u
			}
			p := poolOf(units, testBrokers(20, 1e9, message.MatchingDelayFn{}), table)
			parts := slices.Clone(poolUnits(p)[n/2 : n/2+8])
			merged := []*Unit{MergeUnits("merged", parts...)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.commit(p.stage(parts, merged)); err != nil {
					b.Fatal(err)
				}
				if err := p.commit(p.stage(merged, parts)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/commit")
		})
	}
}

// BenchmarkFeasibilityTest isolates CRAM's inner loop: one BIN PACKING
// feasibility pass over the full pool.
func BenchmarkFeasibilityTest(b *testing.B) {
	in := benchInput(b)
	units := sortUnitsByBandwidthDesc(in.Units)
	brokers := sortBrokersByCapacity(in.Brokers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !feasibleFirstFit(units, brokers, in.Publishers) {
			b.Fatal("pool must be feasible")
		}
	}
}

// BenchmarkProbeReplay reports the feasibility kernel's unit cost: the
// nanoseconds one placement takes (first-fit scan, intersect load,
// aggregate merge) when a scratch pack is cleared and a 20,000-unit pool is
// first-fit placed onto it in full — the pass a CRAM probe makes at that
// scale when the capacity certificate does not stop it.
func BenchmarkProbeReplay(b *testing.B) {
	units, pubs := testWorkload(1, 40, 500, 5, 200)
	var totalBW float64
	for _, u := range units {
		totalBW += u.Load.Bandwidth
	}
	// Bandwidth-bound brokers at 2.2x the even share, as in the E13 scale
	// workload.
	brokers := testBrokers(20, 2.2*totalBW/20, message.MatchingDelayFn{PerSub: 1e-9, Base: 1e-6})
	p := poolOf(units, brokers, newPublisherTable(pubs, units))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !firstFitPass(p) {
			b.Fatal("pool must be feasible")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(units)), "ns/placement")
}

// BenchmarkExhaustiveBookkeeping times one clustering step's work besides
// its feasibility probes, on a sharded exhaustive run at the scale of the
// 20,000-subscription workload: ~21,800 units in ~1,600 GIFs. One op is what
// a step of clusterLightest does around its probe: a unit founds a new GIF
// (move, with its pushBest), another GIF re-searches (pushBest, a sharded
// scan over the live GIFs, each op the next GIF in ID order), the founder
// leaves and its GIF is dropped; plus a pool.commit of a heavy merged unit —
// eight of a GIF's units, landing near the front of the pool — and the
// commit that puts the eight back, each staged first.
func BenchmarkExhaustiveBookkeeping(b *testing.B) {
	seedUnits, pubs := testWorkload(1, 40, 68, 5, 200)
	var units []*Unit
	var totalBW float64
	for _, u := range seedUnits {
		for c := 0; c < 8; c++ {
			dup := *u
			dup.ID = fmt.Sprintf("%s-dup%d", u.ID, c)
			units = append(units, &dup)
			totalBW += u.Load.Bandwidth
		}
	}
	// Bandwidth-bound brokers at 2.2x the even share, as in BenchmarkProbeReplay.
	brokers := testBrokers(20, 2.2*totalBW/20, message.MatchingDelayFn{PerSub: 1e-9, Base: 1e-6})
	in := &Input{Units: units, Brokers: brokers, Publishers: pubs}
	r, err := (&CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true, Shards: 16}).start(in)
	if err != nil {
		b.Fatal(err)
	}
	defer r.spill.close()
	gifs := append([]*gif(nil), r.live...)
	if len(gifs) < 1600 || r.shards == nil {
		b.Fatalf("%d GIFs, sharded %v: want a sharded run over at least 1,600", len(gifs), r.shards != nil)
	}
	founder := r.merge("bench-founder", []take{{gifs[0], 1}, {gifs[len(gifs)-1], 1}})
	key := founder.prof.FingerprintKey()
	if r.byKey[key] != nil {
		b.Fatal("the founder's profile already has a GIF")
	}
	merged := r.merge("bench-merged", []take{{gifs[len(gifs)/2], 8}})
	parts := merged.parts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.heap = r.heap[:0]
		r.move(nil, founder, nil)
		r.pushBest(gifs[i%len(gifs)])
		g := r.byKey[key]
		g.units = g.units[:0]
		r.dropGIF(g)
		if err := r.pool.commit(r.pool.stage(parts, []*Unit{merged.Unit})); err != nil {
			b.Fatal(err)
		}
		if err := r.pool.commit(r.pool.stage([]*Unit{merged.Unit}, parts)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGIFCloseness times the pairwise walks of CRAM's partner searches
// over the GIF profiles of the 8k paper workload: IOS closeness and its
// summary upper bound, on the run's profiles, bound to its publisher table,
// and on unbound clones of them. One op is one pair, drawn from a fixed
// list of 4,096.
func BenchmarkGIFCloseness(b *testing.B) {
	r, err := (&CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true}).start(benchInput8k(b))
	if err != nil {
		b.Fatal(err)
	}
	defer r.spill.close()
	bound := make([]*bitvector.Profile, len(r.live))
	for i, g := range r.live {
		bound[i] = g.profile
	}
	unbound := make([]*bitvector.Profile, len(bound))
	for i, p := range bound {
		unbound[i] = p.Clone()
	}
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int, 4096)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(len(bound)), rng.Intn(len(bound))}
	}
	for _, arm := range []struct {
		name     string
		profiles []*bitvector.Profile
	}{{"bound", bound}, {"unbound", unbound}} {
		summaries := make([]*bitvector.Summary, len(arm.profiles))
		for i, p := range arm.profiles {
			summaries[i] = bitvector.Summarize(p)
		}
		b.Run("IOS/"+arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pr := pairs[i%len(pairs)]
				bitvector.Closeness(bitvector.MetricIOS, arm.profiles[pr[0]], arm.profiles[pr[1]])
			}
		})
		b.Run("upper_bound/"+arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pr := pairs[i%len(pairs)]
				bitvector.ClosenessUpperBound(bitvector.MetricIOS, summaries[pr[0]], summaries[pr[1]])
			}
		})
	}
}

// BenchmarkPosetSearch times CRAM-IOS's poset partner search over the 8k
// paper workload's GIFs, bound to the run's publisher table: one op is one
// SearchClosest from a GIF's profile over the poset the run builds, every
// GIF the query in turn, skipping itself. It reports the closeness
// evaluations a search considers, which the publisher summaries answer
// without a walk for the GIFs that share no publisher with the query.
func BenchmarkPosetSearch(b *testing.B) {
	r, err := (&CRAM{Metric: bitvector.MetricIOS}).start(benchInput8k(b))
	if err != nil {
		b.Fatal(err)
	}
	defer r.spill.close()
	comps := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := r.live[i%len(r.live)]
		res := r.ps.SearchClosest(g.profile, bitvector.MetricIOS, func(n *poset.Node) bool { return n == g.node })
		comps += res.Computations
	}
	b.ReportMetric(float64(comps)/float64(b.N), "comps/search")
}
