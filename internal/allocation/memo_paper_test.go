package allocation_test

import (
	"slices"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/allocation"
	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/sim"
	"github.com/greenps/greenps/internal/workload"
)

// TestSearchMemoOraclePaper8k runs CRAM-IOS, with the search-memo oracle on,
// on the pool the benchmark's plan_paper8k plans at seed 1: 80 brokers, 40
// publishers of 200 subscriptions, 200 profiling rounds, 1,280-bit profiles,
// one worker. Every search a GIF's memo answers is also run and must match
// it. Almost every stale heap entry there re-searches a GIF on a run state
// no write has touched since its last search, so the memo must answer at
// least 40,000 searches (43,336 when it was written), and the closeness
// count must read what the benchmark's trace reads, as if every search ran.
func TestSearchMemoOraclePaper8k(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles an 8,000-subscription scenario")
	}
	o := workload.Defaults()
	o.Brokers, o.Publishers, o.SubsPerPublisher, o.Seed = 80, 40, 200, 1
	sc, err := workload.Build("plan_paper8k", o)
	if err != nil {
		t.Fatal(err)
	}
	_, infos, err := sim.Prepare(sc, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The input core.ComputePlan hands CRAM: every broker throttled, so no
	// bandwidth default applies.
	in := &allocation.Input{Publishers: core.PublisherStats(infos)}
	for i := range infos {
		bi := &infos[i]
		if bi.OutputBandwidth <= 0 {
			t.Fatalf("broker %s reports no output bandwidth", bi.ID)
		}
		in.Brokers = append(in.Brokers, &allocation.BrokerSpec{ID: bi.ID, URL: bi.URL, Delay: bi.Delay, OutputBandwidth: bi.OutputBandwidth})
		for _, si := range bi.Subscriptions {
			in.Units = append(in.Units, core.SubscriptionUnit(si, 1280, in.Publishers))
		}
	}
	slices.SortFunc(in.Units, func(a, b *allocation.Unit) int { return strings.Compare(a.ID, b.ID) })
	slices.SortFunc(in.Brokers, func(a, b *allocation.BrokerSpec) int { return strings.Compare(a.ID, b.ID) })

	c := &allocation.CRAM{Metric: bitvector.MetricIOS, Parallelism: 1}
	allocation.CheckSearchMemo(c)
	if _, err := c.Allocate(in); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	t.Logf("%+v", st)
	if st.SearchesReused < 40_000 {
		t.Errorf("the memo answered %d searches, want at least 40,000", st.SearchesReused)
	}
	if st.ClosenessComputations != 2_730_814 {
		t.Errorf("%d closeness computations, want 2,730,814", st.ClosenessComputations)
	}
}
