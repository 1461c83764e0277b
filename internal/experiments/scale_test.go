package experiments

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/greenps/greenps/internal/allocation"
	"github.com/greenps/greenps/internal/bitvector"
)

// TestScaleWorkloadDeterministic pins the generator: identical seeds
// produce byte-identical pools (the seeds published in EXPERIMENTS.md
// must reproduce).
func TestScaleWorkloadDeterministic(t *testing.T) {
	a, err := ScaleWorkload(9, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScaleWorkload(9, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Units) != 3_000 || len(b.Units) != len(a.Units) {
		t.Fatalf("unit counts %d/%d, want 3000", len(a.Units), len(b.Units))
	}
	for i := range a.Units {
		ua, ub := a.Units[i], b.Units[i]
		if ua.ID != ub.ID || ua.Load != ub.Load ||
			ua.Profile.FingerprintKey() != ub.Profile.FingerprintKey() {
			t.Fatalf("unit %d differs between identically seeded generations", i)
		}
	}
	if len(a.Brokers) == 0 || a.Brokers[0].OutputBandwidth != b.Brokers[0].OutputBandwidth {
		t.Fatal("broker pools differ between identically seeded generations")
	}
}

// TestScalePointSmall runs a reduced point end to end with the shard
// count and budget forced low, and checks the full contract: the
// machinery engages (shards pruned, runs spilled) and the assignment is
// identical to an unsharded in-memory run.
func TestScalePointSmall(t *testing.T) {
	const subs = 4_000
	pt, err := RunScalePoint(ScaleOpts{Seed: 3, Subs: subs, Shards: 16, SpillBudgetBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if pt.ShardsPruned == 0 {
		t.Error("forced 16-shard run pruned no shards")
	}
	if pt.SpilledRuns == 0 {
		t.Error("4KiB-budget run spilled no runs")
	}
	if pt.GIFs >= subs {
		t.Errorf("GIF grouping had no effect: %d groups from %d subs", pt.GIFs, subs)
	}

	in, err := ScaleWorkload(3, subs)
	if err != nil {
		t.Fatal(err)
	}
	ref := &allocation.CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true, Shards: 1}
	ra, err := ref.Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	sharded := &allocation.CRAM{
		Metric: bitvector.MetricIOS, ExhaustiveSearch: true,
		Shards: 16, SpillBudgetBytes: 4096,
	}
	sa, err := sharded.Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Fingerprint() != sa.Fingerprint() {
		t.Error("sharded+spilled scale assignment differs from unsharded in-memory baseline")
	}
	if ra.NumAllocated() != pt.AllocatedBrokers {
		t.Errorf("RunScalePoint reports %d brokers, direct run %d", pt.AllocatedBrokers, ra.NumAllocated())
	}
}

// TestWriteScaleBenchJSON runs the CI smoke sizes (20k and 100k
// subscriptions) and rewrites the BENCH_scale.json trajectory. Skipped
// unless BENCH_SCALE_JSON names the destination (CI's bench smoke sets
// it). The 100k point is the gate: automatic sharding must have pruned
// shards wholesale and the candidate generator must have spilled under
// the default budget — if either stays at zero the optimization has
// silently disengaged.
func TestWriteScaleBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_SCALE_JSON")
	if path == "" {
		t.Skip("BENCH_SCALE_JSON not set")
	}
	// One worker: the file is a single-core trajectory, comparable across
	// machines with different core counts.
	_, points, err := ScaleSweep(Config{Seed: 1, Parallelism: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("expected 2 CI scale points, got %d", len(points))
	}
	headline := points[len(points)-1]
	if headline.Subs != 100_000 {
		t.Fatalf("headline point is %d subs, want 100000", headline.Subs)
	}
	if headline.ShardsPruned == 0 {
		t.Error("100k point pruned no shards: sharded search disengaged")
	}
	if headline.SpilledRuns == 0 {
		t.Error("100k point spilled no runs: candidate generation stayed in memory")
	}
	// Carry each row's previous wall time along, so the file always shows
	// the before/after of the last change to the allocation path.
	if old, err := os.ReadFile(path); err == nil {
		var prev []*ScalePoint
		if err := json.Unmarshal(old, &prev); err != nil {
			t.Fatalf("existing %s: %v", path, err)
		}
		for _, pt := range points {
			for _, was := range prev {
				if was.Subs == pt.Subs {
					pt.PrevAllocMillis = was.AllocMillis
				}
			}
		}
	}
	data, err := json.MarshalIndent(points, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
