package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/greenps/greenps/internal/allocation"
	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/extsort"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/poset"
	"github.com/greenps/greenps/internal/workload"
)

// paperLayers runs plan_paper8k's layer benchmarks on the snapshot the
// plan was computed from.
func (p *pass) paperLayers(root int, sc *workload.Scenario, infos []message.BrokerInfo,
	pubs map[string]*bitvector.PublisherStats, cfg core.Config, spec paperSpec) error {
	layers := p.tr.start("layers", root)
	defer p.tr.end(layers)

	// The two sorting algorithms over the same snapshot: packing without
	// clustering, which a CRAM optimisation should leave alone.
	for _, alt := range []struct{ metric, alg string }{
		{"core.plan_binpacking_s", core.AlgBinPacking},
		{"core.plan_fbf_s", core.AlgFBF},
	} {
		c := cfg
		c.Algorithm, c.Clock = alt.alg, nil
		var err error
		id := p.tr.start("core.ComputePlan/"+alt.alg, layers)
		sec, _ := p.timed(func() { _, err = core.ComputePlan(infos, c) })
		p.tr.end(id)
		if err != nil {
			return fmt.Errorf("plan with %s: %w", alt.alg, err)
		}
		p.res.set(alt.metric, sec)
	}

	if err := p.microBIA(layers, infos); err != nil {
		return err
	}

	var profiles []*bitvector.Profile
	for i := range infos {
		for _, si := range infos[i].Subscriptions {
			profiles = append(profiles, si.Profile)
		}
	}
	p.microBitvector(layers, profiles, pubs, spec.pairs)
	if err := p.microPoset(layers, profiles, spec.searches); err != nil {
		return err
	}

	// The routing table every simulated broker matched against during
	// set-up, with one round of the scenario's publications.
	in := &tableInput{}
	for i := range sc.Publishers {
		pd := &sc.Publishers[i]
		in.advs = append(in.advs, pd.Stock.Advertisement(pd.AdvID, pd.ClientID))
	}
	for i := range sc.Subscribers {
		in.subs = append(in.subs, sc.Subscribers[i].Sub)
	}
	for r := 0; len(in.pubs) < microBatch; r++ {
		for i := range sc.Publishers {
			in.pubs = append(in.pubs, sc.Publishers[i].Stock.Publication(sc.Publishers[i].AdvID, r, r))
		}
	}
	in.pubs = in.pubs[:microBatch]
	if err := p.microMatching(layers, in); err != nil {
		return err
	}
	return p.microBroker(layers, in)
}

// scaleLayers runs alloc_scale20k's layer benchmarks on the allocated
// input.
func (p *pass) scaleLayers(root int, in *allocation.Input, gifs int, spec scaleSpec, outDir string) error {
	layers := p.tr.start("layers", root)
	defer p.tr.end(layers)
	p.microBitvector(layers, sortedProfiles(in.Units), in.Publishers, spec.pairs)
	return p.microExtsort(layers, gifs, spec.spillBudget, outDir)
}

// microBIA times encoding and decoding one Broker Information Answer that
// carries every profile of the snapshot, the message CROC waits for
// before it can plan.
func (p *pass) microBIA(parent int, infos []message.BrokerInfo) error {
	env := &message.Envelope{Kind: message.KindBIA, BIA: &message.BIA{RequestID: "bench", Infos: infos}}
	var data []byte
	var err error
	id := p.tr.start("message.Encode/BIA", parent)
	enc, _ := p.timed(func() { data, err = message.Encode(env) })
	p.tr.end(id)
	if err != nil {
		return fmt.Errorf("message layer: %w", err)
	}
	id = p.tr.start("message.Decode/BIA", parent)
	dec, _ := p.timed(func() { _, err = message.Decode(data) })
	p.tr.end(id)
	if err != nil {
		return fmt.Errorf("message layer: %w", err)
	}
	p.res.set("message.bia_encode_s", enc)
	p.res.set("message.bia_decode_s", dec)
	p.res.set("message.bia_bytes", float64(len(data)))
	return nil
}

// microBitvector times the closeness and load kernels over seed-fixed
// pairs of the workload's profiles.
func (p *pass) microBitvector(parent int, profiles []*bitvector.Profile, pubs map[string]*bitvector.PublisherStats, pairs int) {
	if len(profiles) < 2 {
		return
	}
	rng := rand.New(rand.NewSource(p.res.Seed))
	type pair struct {
		a, b   *bitvector.Profile
		sa, sb *bitvector.Summary
	}
	summaries := make(map[*bitvector.Profile]*bitvector.Summary)
	summary := func(pr *bitvector.Profile) *bitvector.Summary {
		if s, ok := summaries[pr]; ok {
			return s
		}
		s := bitvector.Summarize(pr)
		summaries[pr] = s
		return s
	}
	ps := make([]pair, pairs)
	for i := range ps {
		a, b := profiles[rng.Intn(len(profiles))], profiles[rng.Intn(len(profiles))]
		ps[i] = pair{a, b, summary(a), summary(b)}
	}
	// sink keeps the compiler from discarding the kernels' results.
	var sink float64
	for _, k := range []struct {
		metric, span string
		fn           func(pair) float64
	}{
		{"bitvector.closeness_ios_ns", "bitvector.Closeness/IOS", func(q pair) float64 { return bitvector.Closeness(bitvector.MetricIOS, q.a, q.b) }},
		{"bitvector.closeness_xor_ns", "bitvector.Closeness/XOR", func(q pair) float64 { return bitvector.Closeness(bitvector.MetricXor, q.a, q.b) }},
		{"bitvector.upper_bound_ns", "bitvector.ClosenessUpperBound", func(q pair) float64 {
			return bitvector.ClosenessUpperBound(bitvector.MetricIOS, q.sa, q.sb)
		}},
		{"bitvector.estimate_load_ns", "bitvector.EstimateLoad", func(q pair) float64 { return bitvector.EstimateLoad(q.a, pubs).Rate }},
		{"bitvector.intersect_load_ns", "bitvector.IntersectLoad", func(q pair) float64 { return bitvector.IntersectLoad(q.a, q.b, pubs).Rate }},
	} {
		p.res.set(k.metric, p.benchLoop(k.span, parent, func() int {
			for _, q := range ps {
				sink += k.fn(q)
			}
			return len(ps)
		}))
	}
	if sink < 0 {
		panic("bench: closeness and load are never negative")
	}
}

// microPoset inserts every distinct non-empty profile into a poset, then
// searches it for the closest partner of seed-fixed members.
func (p *pass) microPoset(parent int, profiles []*bitvector.Profile, searches int) error {
	ps := poset.New()
	seen := make(map[string]bool)
	var nodes []*poset.Node
	var err error
	id := p.tr.start("poset.Insert", parent)
	sec, _ := p.timed(func() {
		for _, pr := range profiles {
			if pr.Empty() {
				continue
			}
			key := pr.FingerprintKey()
			if seen[key] {
				continue
			}
			seen[key] = true
			var n *poset.Node
			if n, err = ps.Insert(fmt.Sprintf("g%d", len(nodes)), pr, nil); err != nil {
				return
			}
			nodes = append(nodes, n)
		}
	})
	p.tr.end(id)
	if err != nil {
		return fmt.Errorf("poset layer: %w", err)
	}
	p.res.set("poset.insert_s", sec)
	p.res.set("poset.relate_count", float64(ps.RelateCount()))
	if len(nodes) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(p.res.Seed))
	queries := make([]*poset.Node, searches)
	for i := range queries {
		queries[i] = nodes[rng.Intn(len(nodes))]
	}
	p.res.set("poset.search_ns", p.benchLoop("poset.SearchClosest", parent, func() int {
		for _, q := range queries {
			ps.SearchClosest(q.Profile, bitvector.MetricIOS, func(n *poset.Node) bool { return n == q })
		}
		return len(queries)
	}))
	return nil
}

// microExtsort pushes one candidate-sized record per GIF through the
// external sorter under CRAM's spill budget and drains the merge.
func (p *pass) microExtsort(parent int, gifs, budget int, dir string) error {
	rng := rand.New(rand.NewSource(p.res.Seed))
	recs := make([][]byte, gifs)
	for i := range recs {
		// The shape of allocation's spilled candidate: an 8-byte
		// closeness key, then the two group IDs.
		rec := binary.BigEndian.AppendUint64(nil, rng.Uint64())
		recs[i] = append(rec, fmt.Sprintf("gif-%d\x00gif-%d", i, rng.Intn(gifs))...)
	}
	var firstErr error
	runs := 0
	ns := p.benchLoop("extsort.Sort", parent, func() int {
		s := extsort.NewSorter(extsort.Config{MemBudget: budget, Dir: dir})
		for _, r := range recs {
			if err := s.Add(r); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		it, err := s.Sort()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return len(recs)
		}
		defer it.Close()
		runs = s.Runs()
		n := 0
		for {
			_, ok, err := it.Next()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if !ok || err != nil {
				break
			}
			n++
		}
		if n != len(recs) && firstErr == nil {
			firstErr = fmt.Errorf("merged %d of %d records", n, len(recs))
		}
		return len(recs)
	})
	if firstErr != nil {
		return fmt.Errorf("extsort layer: %w", firstErr)
	}
	p.res.set("extsort.sort_ns_per_rec", ns)
	p.res.set("extsort.runs", float64(runs))
	return nil
}
