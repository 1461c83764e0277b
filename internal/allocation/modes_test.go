package allocation

import (
	"fmt"
	"testing"

	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/message"
)

// cramModesCase decodes bytes into a small CRAM input: 1–8 publishers of
// 10 msgs/s and 1,000 B/s over a 100-message window; 2–60 units, each
// sinking a quarter-aligned slice of one publisher's window and, one time in
// four, all of a second publisher's, so that few enough profiles occur for
// GIFs to hold several units; and 1–12 brokers of 2,500–10,000 B/s that
// sustain two to eight streams, tight enough that clusterings get rejected.
// The metric is one of the four. Missing bytes read as zero.
//
//	data[0..5]  metric, publishers, units, brokers, broker bandwidth, delay
//	then        per unit: its publisher, its slice, its second publisher
func cramModesCase(data []byte) (*Input, bitvector.Metric) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	metric := []bitvector.Metric{bitvector.MetricIOS, bitvector.MetricXor, bitvector.MetricIntersect, bitvector.MetricIOU}[next()%4]
	nPubs, nUnits, nBrokers := 1+next()%8, 2+next()%59, 1+next()%12
	brokerBW := []float64{2500, 4000, 6000, 10000}[next()%4]
	delay := message.MatchingDelayFn{Base: 1 / []float64{25, 45, 85}[next()%3]}
	pubs := make(map[string]*bitvector.PublisherStats, nPubs)
	for i := 0; i < nPubs; i++ {
		adv := fmt.Sprintf("P%d", i)
		pubs[adv] = &bitvector.PublisherStats{AdvID: adv, Rate: 10, Bandwidth: 1000, LastSeq: 99}
	}
	units := make([]*Unit, nUnits)
	for i := range units {
		pub, slice, second := next()%nPubs, next(), next()
		prof := bitvector.NewProfile(testCap)
		lo, n := 25*(slice%4), 25*(1+slice/4%4)
		for seq := lo; seq < min(lo+n, 100); seq++ {
			prof.Record(fmt.Sprintf("P%d", pub), seq)
		}
		if second%4 == 0 {
			for seq := 0; seq < 100; seq++ {
				prof.Record(fmt.Sprintf("P%d", second/4%nPubs), seq)
			}
		}
		prof.Sync(pubs)
		id := fmt.Sprintf("s%d", i)
		units[i] = NewSubscriptionUnit("u-"+id, id, prof, bitvector.EstimateLoad(prof, pubs))
	}
	return &Input{Units: units, Brokers: testBrokers(nBrokers, brokerBW, delay), Publishers: pubs}, metric
}

// cramModesRejecting decodes to a pool whose exhaustive runs reject
// clusterings, a self-pair among them (TestCRAMModesSeedRejects).
var cramModesRejecting = []byte{68, 201, 31, 83, 99, 96, 48, 53, 113, 91, 88, 174, 64, 141,
	35, 255, 168, 212, 187, 107, 218, 223, 187, 208, 184, 86, 115}

// checkHeap fails the test unless r's candidates keep the heap's invariant
// (DESIGN.md §7, "One candidate per GIF"): every entry's GIF records the
// entry's index in at, so no GIF holds two entries; no entry's GIF is dropped
// or has its candidate in the spill stream instead; no entry names a
// rejected pairing or a self-pair of fewer than two units; and no entry
// comes before its parent in candBefore order.
func checkHeap(t *testing.T, r *cramRun) {
	t.Helper()
	for i, cd := range r.heap {
		g := cd.g
		switch {
		case g.at != i:
			t.Fatalf("heap entry %d is GIF %s's, whose at reads %d", i, g.id, g.at)
		case g.dropped:
			t.Fatalf("heap entry %d is dropped GIF %s's", i, g.id)
		case g.seeded:
			t.Fatalf("GIF %s holds heap entry %d and its seed record", g.id, i)
		case blacklisted(g, cd.p):
			t.Fatalf("heap entry %d pairs GIF %s with %s, a rejected pairing", i, g.id, cd.p.id)
		case cd.p == g && len(g.units) < 2:
			t.Fatalf("heap entry %d is GIF %s's self-pair with %d units", i, g.id, len(g.units))
		case i > 0 && candBefore(cd, r.heap[(i-1)/2]):
			t.Fatalf("heap entry %d comes before its parent", i)
		}
	}
	for _, g := range r.live {
		if g.at >= len(r.heap) || g.at >= 0 && r.heap[g.at].g != g {
			t.Fatalf("GIF %s's at reads %d, not its heap entry", g.id, g.at)
		}
	}
}

// runChecked is c.run one clustering iteration at a time (maxIterations 1),
// with checkHeap after the seed phase and after every iteration.
func runChecked(t *testing.T, c *CRAM, in *Input) (*cramRun, *Assignment, error) {
	t.Helper()
	r, err := c.start(in)
	if err != nil {
		return nil, nil, err
	}
	defer r.spill.close()
	c.maxIterations = 1
	defer func() { c.maxIterations = 0 }()
	for checkHeap(t, r); r.heap.Len() > 0 || r.spill != nil && r.spill.headOK; checkHeap(t, r) {
		if err := r.cluster(); err != nil {
			return nil, nil, err
		}
	}
	a, err := r.pack()
	if err != nil {
		return nil, nil, err
	}
	return r, a, nil
}

// checkCRAMModes runs BinPacking and CRAM on the input: exhaustive CRAM
// with bounds on and off, one and four shards, spill off and on a 4 KiB
// budget, and the poset and grouping-off searches, every run through
// runChecked, which holds the candidate heap to its invariant after every
// iteration. Every run fails exactly
// when BinPacking does, since they share its initial first-fit. Otherwise
// every plan places each subscription once within capacity, and the
// exhaustive runs agree on the plan and on every stat but the three that
// depend on bounds, shard layout and budget. It returns the run state of the
// first exhaustive run, nil when the pool does not pack.
func checkCRAMModes(t *testing.T, in *Input, metric bitvector.Metric) *cramRun {
	t.Helper()
	_, bpErr := (&BinPacking{}).Allocate(in)
	var first *cramRun
	var wantFP string
	var wantStats CRAMStats
	dir := t.TempDir()
	for _, noBounds := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			for _, budget := range []int{0, 4096} {
				name := fmt.Sprintf("%v noBounds=%v shards=%d budget=%d", metric, noBounds, shards, budget)
				c := &CRAM{Metric: metric, ExhaustiveSearch: true, Shards: shards, disableBoundPruning: noBounds,
					SpillBudgetBytes: budget, SpillDir: dir}
				r, a, err := runChecked(t, c, in)
				if (err != nil) != (bpErr != nil) {
					t.Fatalf("%s: error %v, BinPacking's %v", name, err, bpErr)
				}
				if err != nil {
					continue
				}
				checkAssignment(t, in, a)
				stats := c.Stats()
				stats.BoundPruned, stats.ShardsPruned, stats.SpilledRuns = 0, 0, 0
				if first == nil {
					first, wantFP, wantStats = r, a.Fingerprint(), stats
					continue
				}
				if fp := a.Fingerprint(); fp != wantFP {
					t.Fatalf("%s: plan\n%s\ndiffers from the first exhaustive run's\n%s", name, fp, wantFP)
				}
				if stats != wantStats {
					t.Fatalf("%s: stats %+v, the first exhaustive run's %+v", name, stats, wantStats)
				}
			}
		}
	}
	for _, c := range []*CRAM{{Metric: metric}, {Metric: metric, DisableGIFGrouping: true}} {
		_, a, err := runChecked(t, c, in)
		if (err != nil) != (bpErr != nil) {
			t.Fatalf("%v grouping-off=%v: error %v, BinPacking's %v", metric, c.DisableGIFGrouping, err, bpErr)
		}
		if err == nil {
			checkAssignment(t, in, a)
		}
	}
	return first
}

// FuzzCRAMModes holds CRAM's search modes to one another, and the candidate
// heap to its invariant after every clustering iteration, on small pools the
// fuzzer chooses (checkCRAMModes).
func FuzzCRAMModes(f *testing.F) {
	f.Add(cramModesRejecting)
	f.Add([]byte{101, 190, 250, 46, 93, 97, 224, 87, 135, 30, 183, 158})
	// An INTERSECT run in which a GIF that gives up units to a clustering
	// loses its self-pair: the re-search that follows must not keep it.
	f.Add([]byte("21\t1700011"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, metric := cramModesCase(data)
		checkCRAMModes(t, in, metric)
	})
}

// TestCRAMModesSeedRejects keeps FuzzCRAMModes' committed seed what it is
// there for: a run that rejects clusterings, a self-pair among them, so the
// rejection record takes part in the modes' agreement.
func TestCRAMModesSeedRejects(t *testing.T) {
	in, metric := cramModesCase(cramModesRejecting)
	r := checkCRAMModes(t, in, metric)
	if r == nil {
		t.Fatal("the seed's pool does not pack")
	}
	if n := r.c.Stats().ClustersRejected; n == 0 {
		t.Fatal("the seed's run rejects no clustering")
	}
	for _, g := range r.live {
		if g.blSelf {
			return
		}
	}
	t.Fatal("the seed's run rejects no self-pair of a live GIF")
}
