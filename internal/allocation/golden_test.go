package allocation

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"github.com/greenps/greenps/internal/bitvector"
)

// TestCRAMGolden pins what CRAM-IOS does on one 2,000-subscription pool —
// every CRAMStats counter and the hash of the plan's fingerprint — in the
// three partner-search modes, and in the exhaustive one with its seed
// candidates spilled to disk, so that the spill's records resolve to the GIFs
// they name, rejected and dropped ones included. The brokers are tight enough
// that clusterings get rejected, so the rejection record takes part in every
// search. The other equivalence tests compare one run of today's code with
// another; this one compares today's code with the code that wrote these
// values down, so a search loop that drifts a count or a tie-break fails here
// and not only in the benchmark's digests. A change that means to alter plans
// or counts re-reads the values and says so.
func TestCRAMGolden(t *testing.T) {
	units, pubs := testWorkload(1, 20, 100, 10, 100)
	in := &Input{Units: units, Brokers: testBrokers(100, 25_000, stdDelay()), Publishers: pubs}
	cases := []struct {
		name  string
		cram  CRAM
		stats CRAMStats
		plan  string // first 8 bytes of sha256(Assignment.Fingerprint()), hex
	}{
		{
			name: "poset", cram: CRAM{Metric: bitvector.MetricIOS},
			stats: CRAMStats{InitialUnits: 2000, InitialGIFs: 1210, FinalUnits: 61,
				ClosenessComputations: 181204, CoverComputations: 11206, PackAttempts: 1401,
				ClustersAccepted: 1053, ClustersRejected: 147, OneToManyApplied: 103},
			plan: "175bc7c98af9a0d9",
		},
		{
			name: "exhaustive", cram: CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true},
			stats: CRAMStats{InitialUnits: 2000, InitialGIFs: 1210, FinalUnits: 62,
				ClosenessComputations: 3742622, BoundPruned: 3608364, PackAttempts: 1575,
				ClustersAccepted: 1218, ClustersRejected: 156},
			plan: "5bc519fba023d736",
		},
		{
			name: "sharded-exhaustive", cram: CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true, Shards: 16},
			stats: CRAMStats{InitialUnits: 2000, InitialGIFs: 1210, FinalUnits: 62,
				ClosenessComputations: 3742622, BoundPruned: 3608364, PackAttempts: 1575,
				ClustersAccepted: 1218, ClustersRejected: 156, ShardsPruned: 84630},
			plan: "5bc519fba023d736",
		},
		{
			name: "spilled-exhaustive", cram: CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true,
				SpillBudgetBytes: 4096, SpillDir: t.TempDir()},
			stats: CRAMStats{InitialUnits: 2000, InitialGIFs: 1210, FinalUnits: 62,
				ClosenessComputations: 3742622, BoundPruned: 3608364, PackAttempts: 1575,
				ClustersAccepted: 1218, ClustersRejected: 156, SpilledRuns: 5},
			plan: "5bc519fba023d736",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.cram.Allocate(in)
			if err != nil {
				t.Fatal(err)
			}
			if got := tc.cram.Stats(); got != tc.stats {
				t.Errorf("stats moved:\n got %+v\nwant %+v", got, tc.stats)
			}
			sum := sha256.Sum256([]byte(a.Fingerprint()))
			if got := fmt.Sprintf("%x", sum[:8]); got != tc.plan {
				t.Errorf("plan moved: fingerprint hash %s, want %s", got, tc.plan)
			}
		})
	}
}
