package extsort

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
)

// collect drains an iterator into owned copies.
func collect(t *testing.T, it *Iterator) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		rec, ok, err := it.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, append([]byte(nil), rec...))
	}
}

// refSort is the model: an in-memory sort of the full input.
func refSort(recs [][]byte) [][]byte {
	out := make([][]byte, len(recs))
	copy(out, recs)
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}

func randRecords(rng *rand.Rand, n, maxLen int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		rec := make([]byte, 1+rng.Intn(maxLen))
		for j := range rec {
			// Small alphabet forces plenty of duplicate records, many of
			// them split across runs.
			rec[j] = byte('a' + rng.Intn(4))
		}
		recs[i] = rec
	}
	return recs
}

// TestDifferentialSpillVsMemory is the core contract: with a budget tiny
// enough to force many spilled runs, the merged order is byte-identical
// to the pure in-memory sort of the same input.
func TestDifferentialSpillVsMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		recs := randRecords(rng, 500+rng.Intn(1500), 40)
		want := refSort(recs)

		s := NewSorter(Config{MemBudget: MinMemBudget, Dir: t.TempDir()})
		for _, r := range recs {
			if err := s.Add(r); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
		if s.Runs() == 0 {
			t.Fatalf("trial %d: expected spilled runs under a %d-byte budget", trial, MinMemBudget)
		}
		it, err := s.Sort()
		if err != nil {
			t.Fatalf("Sort: %v", err)
		}
		got := collect(t, it)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d records out, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("trial %d record %d: got %q want %q", trial, i, got[i], want[i])
			}
		}
	}
}

// TestInMemoryPathNoDisk verifies a sort within budget spills nothing and
// still produces the model order.
func TestInMemoryPathNoDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	recs := randRecords(rng, 1000, 24)

	s := NewSorter(Config{Dir: t.TempDir()})
	for _, r := range recs {
		if err := s.Add(r); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if s.Runs() != 0 {
		t.Fatalf("spilled %d runs under the default budget", s.Runs())
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	got := collect(t, it)
	want := refSort(recs)
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
}

// TestRunFilesRemoved verifies the spilled temp files are gone once the
// iterator is drained (Next's final ok=false closes implicitly).
func TestRunFilesRemoved(t *testing.T) {
	dir := t.TempDir()
	s := NewSorter(Config{MemBudget: MinMemBudget, Dir: dir})
	rng := rand.New(rand.NewSource(10))
	for _, r := range randRecords(rng, 2000, 32) {
		if err := s.Add(r); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if s.Runs() == 0 {
		t.Fatal("expected spills")
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	collect(t, it)
	left, err := filepath.Glob(filepath.Join(dir, "extsort-*.run"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("run files left behind: %v", left)
	}
	// A second Close is a no-op, and Close before draining also cleans up.
	it.Close()

	s2 := NewSorter(Config{MemBudget: MinMemBudget, Dir: dir})
	for _, r := range randRecords(rng, 2000, 32) {
		if err := s2.Add(r); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	it2, err := s2.Sort()
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	if _, ok, err := it2.Next(); err != nil || !ok {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	it2.Close()
	left, _ = filepath.Glob(filepath.Join(dir, "extsort-*.run"))
	if len(left) != 0 {
		t.Fatalf("run files left after early Close: %v", left)
	}
}

// TestMisuse covers the API edges: Add after Sort, double Sort, oversized
// records, and an empty sorter.
func TestMisuse(t *testing.T) {
	s := NewSorter(Config{Dir: t.TempDir()})
	it, err := s.Sort()
	if err != nil {
		t.Fatalf("empty Sort: %v", err)
	}
	if _, ok, _ := it.Next(); ok {
		t.Fatal("empty sorter yielded a record")
	}
	if err := s.Add([]byte("x")); err == nil {
		t.Fatal("Add after Sort succeeded")
	}
	if _, err := s.Sort(); err == nil {
		t.Fatal("second Sort succeeded")
	}

	s2 := NewSorter(Config{Dir: t.TempDir()})
	if err := s2.Add(make([]byte, maxRecordLen+1)); err == nil {
		t.Fatal("oversized Add succeeded")
	}
}

// TestIteratorSteadyStateAllocs pins the merge loop's per-record cost —
// Next, siftDown and srcLess: once the heap is built and the out buffer
// warmed, Next on the spill path must stay allocation-free (pooled
// scratch, reused out buffer).
func TestIteratorSteadyStateAllocs(t *testing.T) {
	s := NewSorter(Config{MemBudget: MinMemBudget, Dir: t.TempDir()})
	rng := rand.New(rand.NewSource(11))
	for _, r := range randRecords(rng, 5000, 16) {
		if err := s.Add(r); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if s.Runs() == 0 {
		t.Fatal("expected spills")
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	defer it.Close()
	// Warm the out buffer and the readers' record scratch.
	for i := 0; i < 100; i++ {
		if _, ok, err := it.Next(); !ok || err != nil {
			t.Fatalf("warmup Next: ok=%v err=%v", ok, err)
		}
	}
	avg := testing.AllocsPerRun(1000, func() {
		if _, ok, err := it.Next(); !ok || err != nil {
			t.Fatalf("Next: ok=%v err=%v", ok, err)
		}
	})
	// AllocsPerRun rounds down, so a rare buffered-file refill inside the
	// OS read path cannot fail the pin; an allocation per record does.
	if avg != 0 {
		t.Fatalf("steady-state Next allocates %v allocs/op, want 0", avg)
	}
}

// TestDirFallback exercises Dir="" (os.TempDir) so the default config is
// known-good too. TMPDIR points at a directory of this test's own, so run
// files of other test binaries spilling concurrently cannot look like a
// leak.
func TestDirFallback(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	s := NewSorter(Config{MemBudget: MinMemBudget})
	for i := 0; i < 3000; i++ {
		if err := s.Add([]byte(fmt.Sprintf("rec-%06d", 2999-i))); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if s.Runs() == 0 {
		t.Fatal("expected spills")
	}
	if runs, _ := filepath.Glob(filepath.Join(dir, "extsort-*.run")); len(runs) != s.Runs() {
		t.Fatalf("%d run files in TMPDIR, want %d", len(runs), s.Runs())
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	got := collect(t, it)
	if len(got) != 3000 {
		t.Fatalf("got %d records", len(got))
	}
	if !bytes.Equal(got[0], []byte("rec-000000")) || !bytes.Equal(got[2999], []byte("rec-002999")) {
		t.Fatalf("order wrong: first %q last %q", got[0], got[2999])
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "extsort-*.run")); len(left) != 0 {
		t.Fatalf("run files left in TMPDIR: %v", left)
	}
}
