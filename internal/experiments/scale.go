package experiments

import (
	"fmt"
	"time"

	"github.com/greenps/greenps/internal/allocation"
	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/metrics"
)

// This file is experiment E13: CRAM Phase-2 allocation pushed far past
// the paper's 8,000-subscription evaluation ceiling, to 100k and (with
// -full) 1M subscriptions. The pool is allocated directly — building a
// million live brokers through the simulation harness would measure the
// harness, not the algorithm — with the sharded exhaustive partner
// search and the spill-to-disk candidate generator engaged, which is
// the configuration whose memory stays bounded at this scale.

// scaleProfileCapacity bounds the bit vectors; the synthetic windows
// live in [0, scaleWindow).
const (
	scaleProfileCapacity = 256
	scaleWindow          = 200
	// scaleSlicesPerPub is the number of distinct subscription windows
	// drawn per publisher. Subscriptions reuse these windows, so GIF
	// grouping collapses the pool to roughly pubs x (slices+1) groups —
	// realistic duplication (the paper reports 61% at 8k subs, far more
	// at community scale) that keeps the clustering pool tractable while
	// the grouping and load-estimation passes still chew through every
	// raw subscription.
	scaleSlicesPerPub = 40
	// scaleSpillBudget is the default candidate-memory budget: small
	// enough that the headline points must spill sorted runs to disk.
	scaleSpillBudget = 64 << 10
)

// ScaleWorkload synthesizes a subs-sized allocation input: one
// publisher per 500 subscriptions (capped at 400), 30% full-window
// subscribers, the rest drawn from the publisher's window slices.
// Brokers are bandwidth-bound (the matching constraint is configured
// loose) and sized so a publisher's whole audience fits on one broker.
func ScaleWorkload(seed int64, subs int) (*allocation.Input, error) {
	nPubs := subs / 500
	if nPubs < 8 {
		nPubs = 8
	}
	if nPubs > 400 {
		nPubs = 400
	}
	const rate, msgBytes = 5.0, 200.0
	rng := newRand(seed)
	pubs := make(map[string]*bitvector.PublisherStats, nPubs)
	type slice struct{ lo, hi int }
	slices := make([][]slice, nPubs)
	for p := 0; p < nPubs; p++ {
		advID := fmt.Sprintf("ADV%d", p)
		pubs[advID] = &bitvector.PublisherStats{
			AdvID:     advID,
			Rate:      rate,
			Bandwidth: rate * msgBytes,
			LastSeq:   scaleWindow - 1,
		}
		ws := make([]slice, scaleSlicesPerPub)
		for i := range ws {
			lo := rng.Intn(scaleWindow / 2)
			ws[i] = slice{lo, lo + scaleWindow/4 + rng.Intn(scaleWindow/4)}
		}
		slices[p] = ws
	}
	units := make([]*allocation.Unit, 0, subs)
	var totalBW float64
	for s := 0; s < subs; s++ {
		p := rng.Intn(nPubs)
		advID := fmt.Sprintf("ADV%d", p)
		prof := bitvector.NewProfile(scaleProfileCapacity)
		if rng.Intn(10) < 3 { // 30%: the publisher's whole window
			for i := 0; i < scaleWindow; i++ {
				prof.Record(advID, i)
			}
		} else {
			w := slices[p][rng.Intn(scaleSlicesPerPub)]
			for i := w.lo; i < w.hi && i < scaleWindow; i++ {
				prof.Record(advID, i)
			}
		}
		prof.Sync(pubs)
		id := fmt.Sprintf("s%d", s)
		sub := message.NewSubscription(id, "c"+id, nil)
		load := bitvector.EstimateLoad(prof, pubs)
		totalBW += load.Bandwidth
		units = append(units, allocation.NewSubscriptionUnit("u"+id, sub, prof, load))
	}
	nBrokers := nPubs / 2
	if nBrokers < 8 {
		nBrokers = 8
	}
	brokers := make([]*allocation.BrokerSpec, nBrokers)
	// Capacity 2.2x the even share keeps every merge of one publisher's
	// audience feasible; Base 1us / PerSub 1ns leaves matching delay far
	// from binding, so the run stays in the bandwidth-bound regime.
	perBroker := 2.2 * totalBW / float64(nBrokers)
	for i := range brokers {
		brokers[i] = &allocation.BrokerSpec{
			ID:              fmt.Sprintf("B%03d", i),
			URL:             fmt.Sprintf("inproc://B%03d", i),
			Delay:           message.MatchingDelayFn{PerSub: 1e-9, Base: 1e-6},
			OutputBandwidth: perBroker,
		}
	}
	in := &allocation.Input{
		Units:           units,
		Brokers:         brokers,
		Publishers:      pubs,
		ProfileCapacity: scaleProfileCapacity,
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: scale workload: %w", err)
	}
	return in, nil
}

// ScalePoint is one row of the scale trajectory (and of
// BENCH_scale.json).
type ScalePoint struct {
	Subs             int   `json:"subs"`
	GIFs             int   `json:"gifs"`
	FinalUnits       int   `json:"final_units"`
	AllocatedBrokers int   `json:"allocated_brokers"`
	ShardsPruned     int   `json:"shards_pruned"`
	BoundPruned      int   `json:"bound_pruned"`
	SpilledRuns      int   `json:"spilled_runs"`
	GenMillis        int64 `json:"gen_millis"`
	AllocMillis      int64 `json:"alloc_millis"`
	// PrevAllocMillis is the alloc_millis this row held before it was last
	// regenerated — the "before" of BENCH_scale.json's before/after pair.
	// Filled by the file's writer, not by a run.
	PrevAllocMillis int64 `json:"alloc_millis_prev,omitempty"`
}

// ScaleOpts parameterizes one scale point.
type ScaleOpts struct {
	Seed int64
	Subs int
	// Shards is CRAM's shard override (0 = automatic sizing).
	Shards int
	// SpillBudgetBytes caps the candidate working set (0 = default
	// scaleSpillBudget; negative = never spill).
	SpillBudgetBytes int
	Parallelism      int
}

// RunScalePoint builds the workload and allocates it through sharded
// exhaustive CRAM-IOS, returning the measured point.
func RunScalePoint(o ScaleOpts) (*ScalePoint, error) {
	budget := o.SpillBudgetBytes
	switch {
	case budget == 0:
		budget = scaleSpillBudget
	case budget < 0:
		budget = 0
	}
	genStart := time.Now()
	in, err := ScaleWorkload(o.Seed, o.Subs)
	if err != nil {
		return nil, err
	}
	gen := time.Since(genStart)
	cram := &allocation.CRAM{
		Metric:           bitvector.MetricIOS,
		ExhaustiveSearch: true,
		Shards:           o.Shards,
		SpillBudgetBytes: budget,
		Parallelism:      o.Parallelism,
	}
	allocStart := time.Now()
	asg, err := cram.Allocate(in)
	if err != nil {
		return nil, fmt.Errorf("experiments: scale %d subs: %w", o.Subs, err)
	}
	st := cram.Stats()
	return &ScalePoint{
		Subs:             o.Subs,
		GIFs:             st.InitialGIFs,
		FinalUnits:       st.FinalUnits,
		AllocatedBrokers: asg.NumAllocated(),
		ShardsPruned:     st.ShardsPruned,
		BoundPruned:      st.BoundPruned,
		SpilledRuns:      st.SpilledRuns,
		GenMillis:        gen.Milliseconds(),
		AllocMillis:      time.Since(allocStart).Milliseconds(),
	}, nil
}

// ScaleSizes returns the sweep's subscription counts: 20k and 100k
// always (the CI smoke scale), 1M with full.
func ScaleSizes(full bool) []int {
	sizes := []int{20_000, 100_000}
	if full {
		sizes = append(sizes, 1_000_000)
	}
	return sizes
}

// ScaleSweep runs experiment E13 and returns both the renderable series
// and the raw points (the BENCH_scale.json payload).
func ScaleSweep(cfg Config, full bool) (*metrics.Series, []*ScalePoint, error) {
	c := cfg.withDefaults()
	out := &metrics.Series{
		ID:    "E13",
		Title: "CRAM allocation at scale (sharded exhaustive search, spill-to-disk candidates)",
		Header: []string{"subscriptions", "GIFs", "final units", "brokers",
			"shards pruned", "bound pruned", "spilled runs", "generate", "allocate"},
		Notes: []string{
			fmt.Sprintf("spill budget %d KiB; shard count automatic; plans are identical at any shard count or budget", scaleSpillBudget>>10),
			"paper evaluation tops out at 8,000 subscriptions; this series is the repo's extension (DESIGN.md section 14)",
		},
	}
	var points []*ScalePoint
	for _, subs := range ScaleSizes(full) {
		pt, err := RunScalePoint(ScaleOpts{Seed: c.Seed, Subs: subs, Parallelism: c.Parallelism})
		if err != nil {
			return nil, nil, err
		}
		points = append(points, pt)
		out.AddRow(metrics.I(pt.Subs), metrics.I(pt.GIFs), metrics.I(pt.FinalUnits),
			metrics.I(pt.AllocatedBrokers), metrics.I(pt.ShardsPruned), metrics.I(pt.BoundPruned),
			metrics.I(pt.SpilledRuns), metrics.Dur(time.Duration(pt.GenMillis)*time.Millisecond),
			metrics.Dur(time.Duration(pt.AllocMillis)*time.Millisecond))
		c.logf("E13 %d subs: gifs=%d shardsPruned=%d spilledRuns=%d alloc=%dms",
			pt.Subs, pt.GIFs, pt.ShardsPruned, pt.SpilledRuns, pt.AllocMillis)
	}
	return out, points, nil
}
