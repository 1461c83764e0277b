// Package core assembles the paper's three-phase reconfiguration pipeline
// into a single planning function: given the Broker Information Answers
// gathered in Phase 1, it runs a Phase-2 subscription allocation algorithm
// (FBF, BIN PACKING, CRAM with any closeness metric, or the PAIRWISE
// related-work derivatives), constructs the Phase-3 broker overlay, and
// places publishers with GRAPE. The output Plan is everything a deployer —
// the live CROC client or the simulation harness — needs to re-instantiate
// the system.
package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/greenps/greenps/internal/allocation"
	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/grape"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/overlaybuild"
)

// unthrottledBandwidth is the effective output capacity assumed for
// brokers that report no bandwidth throttle (10 Gbps in bytes/s).
const unthrottledBandwidth = 1.25e9

// Algorithm names accepted by Config.Algorithm, matching the paper's
// terminology.
const (
	AlgFBF           = "FBF"
	AlgBinPacking    = "BINPACKING"
	AlgCRAMIntersect = "CRAM-INTERSECT"
	AlgCRAMXor       = "CRAM-XOR"
	AlgCRAMIOS       = "CRAM-IOS"
	AlgCRAMIOU       = "CRAM-IOU"
	AlgPairwiseK     = "PAIRWISE-K"
	AlgPairwiseN     = "PAIRWISE-N"
)

// Algorithms lists every reconfiguration algorithm ComputePlan accepts, in
// presentation order.
func Algorithms() []string {
	return []string{AlgFBF, AlgBinPacking, AlgCRAMIntersect, AlgCRAMXor,
		AlgCRAMIOS, AlgCRAMIOU, AlgPairwiseK, AlgPairwiseN}
}

// Config selects and parameterizes the pipeline.
type Config struct {
	// Algorithm is one of the Alg* names.
	Algorithm string
	// GrapeMode is the publisher-relocation objective (default load).
	GrapeMode grape.Mode
	// ProfileCapacity is the bit-vector capacity (0 = default 1280).
	ProfileCapacity int
	// Seed drives FBF's draw order and the PAIRWISE/AUTOMATIC random
	// choices.
	Seed int64
	// Clock, when non-nil, is sampled around planning to fill
	// Plan.ComputeTime (experiment E7). The core package never reads the
	// wall clock itself — the plan must be a pure function of its inputs —
	// so callers that want timing pass time.Now explicitly.
	Clock func() time.Time
	// CRAM ablation switches (experiment E8); zero values = paper
	// behavior.
	DisableGIFGrouping bool
	ExhaustiveSearch   bool
	DisableOneToMany   bool
	// Parallelism caps the worker count of CRAM's seed phase, the one loop
	// the allocation algorithms fan out (0 = all cores); FBF and BIN
	// PACKING ignore it. Results are bit-for-bit identical at any setting;
	// only wall-clock time changes.
	Parallelism int
	// Shards sets CRAM's sharded exhaustive partner scan (0 = automatic,
	// 1 = unsharded). Plans are bit-for-bit identical at any value; only
	// the ShardsPruned stat depends on the layout.
	Shards int
	// SpillBudgetBytes caps CRAM's in-memory seed-candidate working set;
	// past it, sorted candidate runs spill to temp files and merge back
	// (0 = never spill). Plans and all stats except SpilledRuns are
	// identical at any budget.
	SpillBudgetBytes int
	// Overlay ablation switches (experiment E10).
	DisableEliminateForwarders bool
	DisableTakeover            bool
	DisableBestFit             bool
}

// Plan is the outcome of Phases 2-3 plus GRAPE: where every broker,
// subscriber, and publisher goes.
type Plan struct {
	// Algorithm echoes the configured algorithm.
	Algorithm string
	// Tree is the constructed overlay.
	Tree *overlaybuild.Tree
	// Subscribers maps subscription ID to its new broker.
	Subscribers map[string]string
	// Publishers maps advertisement ID to its new broker.
	Publishers grape.Placement
	// Assignment is the raw Phase-2 outcome (before Phase 3's takeover
	// optimization may move units).
	Assignment *allocation.Assignment
	// CRAMStats is populated for CRAM runs.
	CRAMStats *allocation.CRAMStats
	// BuildStats reports the overlay construction optimizations.
	BuildStats overlaybuild.Stats
	// ComputeTime is the wall time spent planning (experiment E7).
	ComputeTime time.Duration
	// PhaseTimes breaks ComputeTime into pipeline stages. Like
	// ComputeTime it is measurement, not plan content: sampled from
	// Config.Clock (all zero when the clock is nil) and never fed back
	// into planning.
	PhaseTimes PhaseTimes
}

// PhaseTimes is the per-stage breakdown of a planning run, the raw
// material of the coordinator's reconfiguration timeline.
type PhaseTimes struct {
	// Inputs covers converting the gathered BIA contents into the
	// allocation input (load estimation included).
	Inputs time.Duration
	// Allocate covers the Phase-2 subscription allocation.
	Allocate time.Duration
	// Build covers the Phase-3 recursive overlay construction.
	Build time.Duration
	// Grape covers publisher relocation.
	Grape time.Duration
}

// stageTimer laps the injected clock between pipeline stages; with no
// clock every lap is zero.
type stageTimer struct {
	clock func() time.Time
	last  time.Time
}

func newStageTimer(clock func() time.Time) *stageTimer {
	t := &stageTimer{clock: clock}
	if clock != nil {
		t.last = clock()
	}
	return t
}

// lap returns the time since the previous lap (or construction).
func (t *stageTimer) lap() time.Duration {
	if t.clock == nil {
		return 0
	}
	now := t.clock()
	d := now.Sub(t.last)
	t.last = now
	return d
}

// NumBrokers returns the number of brokers the plan allocates.
func (p *Plan) NumBrokers() int { return p.Tree.NumBrokers() }

// inputsFromInfos converts the aggregated BIA contents into an allocation
// input: one unit per subscription, the global broker pool, and the merged
// publisher statistics.
func inputsFromInfos(infos []message.BrokerInfo, capacity int) (*allocation.Input, error) {
	if len(infos) == 0 {
		return nil, fmt.Errorf("core: no broker information gathered")
	}
	in := &allocation.Input{
		Publishers:      make(map[string]*bitvector.PublisherStats),
		ProfileCapacity: capacity,
	}
	for i := range infos {
		bi := &infos[i]
		bw := bi.OutputBandwidth
		if bw <= 0 {
			// An unthrottled broker reports zero; plan against a 10 Gbps
			// effective ceiling so capacity checks stay meaningful.
			bw = unthrottledBandwidth
		}
		in.Brokers = append(in.Brokers, &allocation.BrokerSpec{
			ID:              bi.ID,
			URL:             bi.URL,
			Delay:           bi.Delay,
			OutputBandwidth: bw,
		})
		for _, pi := range bi.Publishers {
			in.Publishers[pi.Stats.AdvID] = pi.Stats
		}
	}
	// Units second, so load estimation sees every publisher.
	for i := range infos {
		for _, si := range infos[i].Subscriptions {
			prof := si.Profile
			if prof == nil {
				prof = bitvector.NewProfile(capacity)
			}
			load := bitvector.EstimateLoad(prof, in.Publishers)
			in.Units = append(in.Units,
				allocation.NewSubscriptionUnit("u-"+si.Sub.ID, si.Sub, prof, load))
		}
	}
	sort.Slice(in.Units, func(a, b int) bool { return in.Units[a].ID < in.Units[b].ID })
	sort.Slice(in.Brokers, func(a, b int) bool { return in.Brokers[a].ID < in.Brokers[b].ID })
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return in, nil
}

// ComputePlan runs Phases 2 and 3 and GRAPE over the gathered broker
// information.
func ComputePlan(infos []message.BrokerInfo, cfg Config) (*Plan, error) {
	var started time.Time
	if cfg.Clock != nil {
		started = cfg.Clock()
	}
	st := newStageTimer(cfg.Clock)
	in, err := inputsFromInfos(infos, cfg.ProfileCapacity)
	if err != nil {
		return nil, err
	}
	mode := cfg.GrapeMode
	if mode == 0 {
		mode = grape.ModeLoad
	}

	plan := &Plan{Algorithm: cfg.Algorithm}
	plan.PhaseTimes.Inputs = st.lap()
	switch {
	case cfg.Algorithm == AlgPairwiseK || cfg.Algorithm == AlgPairwiseN:
		if err := planPairwise(plan, in, cfg, st); err != nil {
			return nil, err
		}
	default:
		if err := planThreePhase(plan, in, cfg, mode, st); err != nil {
			return nil, err
		}
	}
	plan.Subscribers = plan.Tree.SubscriberPlacement()
	if cfg.Clock != nil {
		plan.ComputeTime = cfg.Clock().Sub(started)
	}
	return plan, nil
}

// newAlgorithm instantiates a Phase-2 algorithm by name; PAIRWISE variants
// are handled separately because they need the CRAM-XOR cluster count.
func newAlgorithm(cfg Config) (allocation.Algorithm, error) {
	mkCRAM := func(m bitvector.Metric) *allocation.CRAM {
		return &allocation.CRAM{
			Metric:             m,
			DisableGIFGrouping: cfg.DisableGIFGrouping,
			ExhaustiveSearch:   cfg.ExhaustiveSearch,
			DisableOneToMany:   cfg.DisableOneToMany,
			Parallelism:        cfg.Parallelism,
			Shards:             cfg.Shards,
			SpillBudgetBytes:   cfg.SpillBudgetBytes,
		}
	}
	switch cfg.Algorithm {
	case AlgFBF:
		return &allocation.FBF{Seed: cfg.Seed}, nil
	case AlgBinPacking:
		return &allocation.BinPacking{}, nil
	case AlgCRAMIntersect:
		return mkCRAM(bitvector.MetricIntersect), nil
	case AlgCRAMXor:
		return mkCRAM(bitvector.MetricXor), nil
	case AlgCRAMIOS:
		return mkCRAM(bitvector.MetricIOS), nil
	case AlgCRAMIOU:
		return mkCRAM(bitvector.MetricIOU), nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q (want one of %s)",
			cfg.Algorithm, strings.Join(Algorithms(), ", "))
	}
}

// planThreePhase runs the paper's pipeline: Phase-2 allocation, Phase-3
// recursive overlay construction with the same algorithm, then GRAPE.
func planThreePhase(plan *Plan, in *allocation.Input, cfg Config, mode grape.Mode, st *stageTimer) error {
	alg, err := newAlgorithm(cfg)
	if err != nil {
		return err
	}
	assign, err := alg.Allocate(in)
	if err != nil {
		return fmt.Errorf("core: phase 2 (%s): %w", cfg.Algorithm, err)
	}
	plan.Assignment = assign
	plan.PhaseTimes.Allocate = st.lap()
	if cram, ok := alg.(*allocation.CRAM); ok {
		st := cram.Stats()
		plan.CRAMStats = &st
	}
	builder := &overlaybuild.Builder{
		Algorithm:                  alg,
		DisableEliminateForwarders: cfg.DisableEliminateForwarders,
		DisableTakeover:            cfg.DisableTakeover,
		DisableBestFit:             cfg.DisableBestFit,
	}
	tree, err := builder.Build(assign, in.Publishers, in.ProfileCapacity)
	if err != nil {
		return fmt.Errorf("core: phase 3: %w", err)
	}
	plan.Tree = tree
	plan.BuildStats = builder.Stats()
	plan.PhaseTimes.Build = st.lap()
	placement, err := grape.Relocate(tree, in.Publishers, mode)
	if err != nil {
		return fmt.Errorf("core: GRAPE: %w", err)
	}
	plan.Publishers = placement
	plan.PhaseTimes.Grape = st.lap()
	return nil
}

// planPairwise runs the related-work derivatives: pairwise clustering with
// the XOR metric (K = CRAM-XOR's final cluster count, or N = broker
// count), an AUTOMATIC (random) overlay over the allocated brokers, and
// random publisher placement — exactly how the paper extends the original
// algorithms, which neither allocate brokers nor build overlays.
func planPairwise(plan *Plan, in *allocation.Input, cfg Config, st *stageTimer) error {
	var k int
	switch cfg.Algorithm {
	case AlgPairwiseN:
		k = len(in.Brokers)
	case AlgPairwiseK:
		cram := &allocation.CRAM{Metric: bitvector.MetricXor, Parallelism: cfg.Parallelism}
		ca, err := cram.Allocate(in)
		if err != nil {
			return fmt.Errorf("core: PAIRWISE-K needs CRAM-XOR's cluster count: %w", err)
		}
		k = ca.UnitCount()
	}
	if k > len(in.Brokers) {
		k = len(in.Brokers)
	}
	pw := &allocation.Pairwise{Clusters: k, Variant: cfg.Algorithm, Seed: cfg.Seed}
	assign, err := pw.Allocate(in)
	if err != nil {
		return fmt.Errorf("core: %s: %w", cfg.Algorithm, err)
	}
	plan.Assignment = assign
	plan.PhaseTimes.Allocate = st.lap()
	tree, err := RandomTree(assign, cfg.Seed)
	if err != nil {
		return err
	}
	plan.Tree = tree
	plan.PhaseTimes.Build = st.lap()
	// Random publisher placement over the allocated brokers.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x9e3779b9))
	brokers := tree.Brokers()
	placement := make(grape.Placement)
	advIDs := make([]string, 0, len(in.Publishers))
	for advID := range in.Publishers {
		advIDs = append(advIDs, advID)
	}
	sort.Strings(advIDs)
	for _, advID := range advIDs {
		placement[advID] = brokers[rng.Intn(len(brokers))]
	}
	plan.Publishers = placement
	plan.PhaseTimes.Grape = st.lap()
	return nil
}

// RandomTree builds the AUTOMATIC baseline's overlay: a uniformly random
// tree over the assignment's allocated brokers (each node's parent is
// drawn from the nodes already in the tree).
func RandomTree(assign *allocation.Assignment, seed int64) (*overlaybuild.Tree, error) {
	ids := assign.AllocatedBrokers()
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: random tree over empty assignment")
	}
	rng := rand.New(rand.NewSource(seed ^ 0x51ed2701))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	t := &overlaybuild.Tree{
		Root:     ids[0],
		Children: make(map[string][]string),
		Parent:   make(map[string]string),
		Hosted:   make(map[string][]*allocation.Unit),
		Profiles: make(map[string]*bitvector.Profile),
		Specs:    make(map[string]*allocation.BrokerSpec),
	}
	for i, id := range ids {
		t.Specs[id] = assign.Specs[id]
		t.Hosted[id] = assign.ByBroker[id]
		t.Profiles[id] = assign.Profiles[id]
		if i == 0 {
			continue
		}
		parent := ids[rng.Intn(i)]
		t.Parent[id] = parent
		t.Children[parent] = append(t.Children[parent], id)
	}
	//greenvet:ordered each child list is sorted independently; no cross-iteration state
	for _, kids := range t.Children {
		sort.Strings(kids)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("core: random tree: %w", err)
	}
	return t, nil
}
