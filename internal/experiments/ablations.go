package experiments

import (
	"fmt"
	"time"

	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/metrics"
	"github.com/greenps/greenps/internal/poset"
	"github.com/greenps/greenps/internal/sim"
	"github.com/greenps/greenps/internal/workload"
)

// CRAMAblation reproduces the optimization numbers quoted in Section IV-C
// (experiment E8): GIF grouping's reduction of the pool, the poset search's
// reduction of closeness computations versus an exhaustive scan, the
// one-to-many optimization, and XOR's extra cost. All variants plan over
// one Phase-1 snapshot at the largest configured size.
func CRAMAblation(cfg Config) (*metrics.Series, error) {
	c := cfg.withDefaults()
	size := c.Sizes[len(c.Sizes)-1]
	sc, err := c.scenario("cram-ablation", size, false)
	if err != nil {
		return nil, err
	}
	c.logf("E8: preparing %d-subscription snapshot", len(sc.Subscribers))
	_, infos, err := sim.Prepare(sc, c.ProfileRounds, 0)
	if err != nil {
		return nil, err
	}

	out := &metrics.Series{
		ID: "E8",
		Title: fmt.Sprintf("CRAM optimization ablation (%d subscriptions, %d brokers)",
			len(sc.Subscribers), c.Brokers),
		Header: []string{"variant", "groups", "closeness comps", "cover comps",
			"pack attempts", "brokers", "compute"},
		Notes: []string{
			"paper: 8,000 subs -> ~3,200 GIFs (61% fewer); ~5,000,000 -> ~280,000 computations with the poset; XOR >= 75% slower",
			"closeness comps counts closeness evaluations only; the greedy set cover's DiffCount work is the separate cover-comps column",
		},
	}
	variants := []struct {
		name string
		cc   core.Config
	}{
		{"CRAM-IOS (all optimizations)", core.Config{Algorithm: core.AlgCRAMIOS}},
		{"CRAM-IOS, no GIF grouping", core.Config{Algorithm: core.AlgCRAMIOS, DisableGIFGrouping: true}},
		{"CRAM-IOS, exhaustive search", core.Config{Algorithm: core.AlgCRAMIOS, ExhaustiveSearch: true}},
		{"CRAM-IOS, no one-to-many", core.Config{Algorithm: core.AlgCRAMIOS, DisableOneToMany: true}},
		{"CRAM-INTERSECT", core.Config{Algorithm: core.AlgCRAMIntersect}},
		{"CRAM-IOU", core.Config{Algorithm: core.AlgCRAMIOU}},
		{"CRAM-XOR (Gryphon metric)", core.Config{Algorithm: core.AlgCRAMXor}},
	}
	for _, v := range variants {
		cc := v.cc
		cc.Seed = c.Seed
		cc.Parallelism = c.Parallelism
		cc.Clock = time.Now
		started := time.Now()
		plan, err := core.ComputePlan(infos, cc)
		if err != nil {
			return nil, fmt.Errorf("experiments: E8 %s: %w", v.name, err)
		}
		elapsed := time.Since(started)
		st := plan.CRAMStats
		out.AddRow(v.name, metrics.I(st.InitialGIFs), metrics.I(st.ClosenessComputations),
			metrics.I(st.CoverComputations), metrics.I(st.PackAttempts),
			metrics.I(plan.NumBrokers()), metrics.Dur(elapsed))
		c.logf("E8 %s: gifs=%d comps=%d brokers=%d (%.1fs)",
			v.name, st.InitialGIFs, st.ClosenessComputations, plan.NumBrokers(), elapsed.Seconds())
	}
	return out, nil
}

// LargeScale reproduces the SciNet deployments (experiment E9): 400
// brokers / 72 publishers and 1,000 brokers / 100 publishers at 225
// subscriptions per publisher, sized to initially saturate the MANUAL
// baseline. Scale can be reduced via the config's Brokers field ratio.
func LargeScale(cfg Config, full bool) (*metrics.Series, error) {
	c := cfg.withDefaults()
	type scale struct {
		brokers, pubs, subs int
	}
	scales := []scale{{400, 72, 225}}
	if full {
		scales = append(scales, scale{1000, 100, 225})
	}
	if c.Brokers < 80 { // quick mode: shrink proportionally
		scales = []scale{{100, 18, 56}}
		if full {
			scales = append(scales, scale{250, 25, 56})
		}
	}
	out := &metrics.Series{
		ID:    "E9",
		Title: "large-scale homogeneous deployments (SciNet substitution)",
		Header: []string{"brokers/publishers", "approach", "allocated", "msgs/s per pool broker",
			"hops", "delay ms", "compute"},
	}
	for _, s := range scales {
		o := workload.Defaults()
		o.Brokers = s.brokers
		o.Publishers = s.pubs
		o.SubsPerPublisher = s.subs
		o.Seed = c.Seed
		sc, err := workload.Build(fmt.Sprintf("scinet-%d", s.brokers), o)
		if err != nil {
			return nil, err
		}
		for _, ap := range []string{sim.ApproachManual, core.AlgBinPacking, core.AlgCRAMIOS} {
			started := time.Now()
			res, err := sim.Run(sim.ExperimentConfig{
				Scenario:      sc,
				Approach:      ap,
				ProfileRounds: c.ProfileRounds,
				MeasureRounds: c.MeasureRounds,
				Seed:          c.Seed,
				Core:          core.Config{Parallelism: c.Parallelism},
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: E9 %s/%d: %w", ap, s.brokers, err)
			}
			out.AddRow(fmt.Sprintf("%d/%d", s.brokers, s.pubs), ap,
				metrics.I(res.AllocatedBrokers), metrics.F1(res.AvgRatePerPoolBroker),
				metrics.F2(res.AvgHops), metrics.F1(res.AvgDelayMs), metrics.Dur(res.ComputeTime))
			c.logf("E9 %d brokers %s: allocated=%d (%.1fs)", s.brokers, ap,
				res.AllocatedBrokers, time.Since(started).Seconds())
		}
	}
	return out, nil
}

// OverlayAblation reproduces the Phase-3 optimization ablation
// (experiment E10): overlay construction with each optimization toggled,
// planned over one snapshot at the largest configured size.
func OverlayAblation(cfg Config) (*metrics.Series, error) {
	c := cfg.withDefaults()
	size := c.Sizes[len(c.Sizes)-1]
	sc, err := c.scenario("overlay-ablation", size, false)
	if err != nil {
		return nil, err
	}
	c.logf("E10: preparing %d-subscription snapshot", len(sc.Subscribers))
	_, infos, err := sim.Prepare(sc, c.ProfileRounds, 0)
	if err != nil {
		return nil, err
	}
	out := &metrics.Series{
		ID:     "E10",
		Title:  fmt.Sprintf("Phase-3 overlay optimization ablation (%d subscriptions)", len(sc.Subscribers)),
		Header: []string{"variant", "brokers", "forwarders eliminated", "takeovers", "best-fit swaps"},
	}
	variants := []struct {
		name string
		cc   core.Config
	}{
		{"all optimizations", core.Config{Algorithm: core.AlgBinPacking}},
		{"no pure-forwarder elimination", core.Config{Algorithm: core.AlgBinPacking, DisableEliminateForwarders: true}},
		{"no takeover", core.Config{Algorithm: core.AlgBinPacking, DisableTakeover: true}},
		{"no best-fit replacement", core.Config{Algorithm: core.AlgBinPacking, DisableBestFit: true}},
		{"no optimizations", core.Config{Algorithm: core.AlgBinPacking,
			DisableEliminateForwarders: true, DisableTakeover: true, DisableBestFit: true}},
	}
	for _, v := range variants {
		cc := v.cc
		cc.Seed = c.Seed
		cc.Parallelism = c.Parallelism
		cc.Clock = time.Now
		plan, err := core.ComputePlan(infos, cc)
		if err != nil {
			return nil, fmt.Errorf("experiments: E10 %s: %w", v.name, err)
		}
		st := plan.BuildStats
		out.AddRow(v.name, metrics.I(plan.NumBrokers()), metrics.I(st.ForwardersEliminated),
			metrics.I(st.Takeovers), metrics.I(st.BestFitSwaps))
		c.logf("E10 %s: brokers=%d", v.name, plan.NumBrokers())
	}
	return out, nil
}

// GrapeOnly reproduces experiment E11 (the Section II-B argument): under a
// workload where every broker hosts a matching subscriber, publisher
// relocation alone cannot reduce the system message rate while the full
// three-phase approach can.
func GrapeOnly(cfg Config) (*metrics.Series, error) {
	c := cfg.withDefaults()
	o := workload.Defaults()
	o.Brokers = c.Brokers
	o.Publishers = 1
	o.SubsPerPublisher = 3 * c.Brokers
	o.Seed = c.Seed
	sc, err := workload.EveryBrokerSubscribed(o)
	if err != nil {
		return nil, err
	}
	out := &metrics.Series{
		ID: "E11",
		Title: fmt.Sprintf("publisher relocation alone vs full pipeline (every one of %d brokers subscribed)",
			c.Brokers),
		Header: []string{"approach", "allocated", "total msgs/s", "msg-rate reduction vs MANUAL"},
		Notes: []string{
			"paper (Section II-B): relocating only publishers has no impact here; the 3-phase approach achieves up to 92%",
		},
	}
	var manualRate float64
	for _, ap := range []string{sim.ApproachManual, sim.ApproachGrapeOnly, core.AlgCRAMIOS} {
		res, err := sim.Run(sim.ExperimentConfig{
			Scenario:      sc,
			Approach:      ap,
			ProfileRounds: c.ProfileRounds,
			MeasureRounds: c.MeasureRounds,
			Seed:          c.Seed,
			Core:          core.Config{Parallelism: c.Parallelism},
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: E11 %s: %w", ap, err)
		}
		if ap == sim.ApproachManual {
			manualRate = res.TotalMsgRate
		}
		out.AddRow(ap, metrics.I(res.AllocatedBrokers), metrics.F1(res.TotalMsgRate),
			metrics.Reduction(manualRate, res.TotalMsgRate))
		c.logf("E11 %s: total=%.1f msgs/s", ap, res.TotalMsgRate)
	}
	return out, nil
}

// PosetScaling reproduces the poset insertion measurement of
// Section IV-C.2 (experiment E12; the paper reports ~2 s for 3,200 GIFs on
// 2011 hardware).
func PosetScaling(cfg Config) (*metrics.Series, error) {
	c := cfg.withDefaults()
	out := &metrics.Series{
		ID:     "E12",
		Title:  "poset insertion scalability",
		Header: []string{"GIFs", "insert time", "relationship computations"},
		Notes:  []string{"paper: inserting 3,200 GIFs takes ~2 s (2011 hardware)"},
	}
	sizes := []int{100, 400, 1600, 3200}
	if c.Brokers < 80 {
		sizes = []int{100, 400, 800}
	}
	for _, n := range sizes {
		profiles := syntheticGIFProfiles(c.Seed, n, 40)
		ps := poset.New()
		started := time.Now()
		for i, pr := range profiles {
			if _, err := ps.Insert(fmt.Sprintf("g%d", i), pr, nil); err != nil {
				return nil, fmt.Errorf("experiments: E12 insert: %w", err)
			}
		}
		elapsed := time.Since(started)
		out.AddRow(metrics.I(n), metrics.Dur(elapsed), metrics.I(ps.RelateCount()))
		c.logf("E12 %d GIFs: %v", n, elapsed)
	}
	return out, nil
}

// syntheticGIFProfiles builds n distinct interval profiles spread over
// publishers, mimicking post-grouping GIF pools.
func syntheticGIFProfiles(seed int64, n, pubs int) []*bitvector.Profile {
	out := make([]*bitvector.Profile, 0, n)
	seen := make(map[string]bool, n)
	rng := newRand(seed)
	for len(out) < n {
		p := bitvector.NewProfile(bitvector.DefaultCapacity)
		adv := fmt.Sprintf("P%d", rng.Intn(pubs))
		lo := rng.Intn(1000)
		hi := lo + 20 + rng.Intn(250)
		for i := lo; i <= hi && i < bitvector.DefaultCapacity; i++ {
			p.Record(adv, i)
		}
		p.Vector(adv).Observe(bitvector.DefaultCapacity - 1)
		key := p.FingerprintKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, p)
	}
	return out
}

// newRand returns a splitmix64 generator whose state starts one LCG step
// from seed: deterministic across platforms and Go releases, and not
// math/rand's sequence.
func newRand(seed int64) *randSource {
	return &randSource{state: uint64(seed)*6364136223846793005 + 1442695040888963407}
}

// randSource is a small splitmix-style generator sufficient for synthetic
// profile spreading (deterministic across platforms).
type randSource struct{ state uint64 }

// Intn returns a uniform int in [0,n).
func (r *randSource) Intn(n int) int {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}
