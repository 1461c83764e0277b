package matching

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/greenps/greenps/internal/message"
)

// randomOps draws n script operations of one kind. Operands are reduced
// modulo their alphabets, so random bytes of the right length spell them.
func randomOps(rng *rand.Rand, code byte, n int) []byte {
	width := map[byte]int{opAdd: 3, opPublish: 2}[code]
	var script []byte
	for ; n > 0; n-- {
		operands := make([]byte, 1+4*width)
		rng.Read(operands)
		script = append(append(script, code), operands[:1+int(operands[0]%5)*width]...)
	}
	return script
}

// TestCountingEngineMatchesBruteForceUnderChurn is the equivalence
// property test: on randomized (seeded) workloads the engine must return
// the oracle's match set after every add, every remove — through the
// auto-compaction the removals trigger — and on both sides of an explicit
// Compact.
func TestCountingEngineMatchesBruteForceUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newHarness(t)
		h.run(slices.Concat(randomOps(rng, opPublish, maxScriptPubs), randomOps(rng, opAdd, 200),
			randomOps(rng, opPublish, maxScriptPubs), randomOps(rng, opRemove, 120)))
		// Some 115 removals of 200 (a few name a ghost): tombstones outnumbered the living on the way.
		if tomb := h.e.Tombstones(); tomb == h.adds-len(h.live) {
			t.Fatalf("seed %d: %d tombstones beside %d live subscriptions, auto-compact never fired", seed, tomb, len(h.live))
		}
		h.run(slices.Concat(randomOps(rng, opAdd, 50), randomOps(rng, opPublish, maxScriptPubs),
			randomOps(rng, opRemove, 20), []byte{opCompact}, randomOps(rng, opAdd, 20)))
		if h.e.Tombstones() != 0 || h.adds != 270 {
			t.Fatalf("seed %d: %d tombstones after Compact, %d adds", seed, h.e.Tombstones(), h.adds)
		}
	}
}

// TestCountingEngineMatchBatchOrder verifies the nondecreasing-index
// guarantee MatchBatch documents and that batch results equal N single
// matches.
func TestCountingEngineMatchBatchOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := newHarness(t)
	h.run(slices.Concat(randomOps(rng, opAdd, 100), randomOps(rng, opPublish, 50)))
	got := make([][]string, len(h.pubs))
	last := 0
	h.e.MatchBatch(h.pubs, func(i int, s *message.Subscription) {
		if i < last {
			t.Fatalf("MatchBatch went backwards: %d after %d", i, last)
		}
		last = i
		got[i] = append(got[i], s.ID)
	})
	for i, pub := range h.pubs {
		slices.Sort(got[i])
		if want := h.check(pub, "single"); !slices.Equal(want, got[i]) {
			t.Fatalf("pub %d: batch %v != single %v", i, got[i], want)
		}
	}
}

// TestCompactPreservesMatchCount is the regression test for Compact
// zeroing matchCount (broker matching metrics silently reset after
// every reconfiguration): the counter must survive explicit Compact.
func TestCompactPreservesMatchCount(t *testing.T) {
	pub := message.NewPublication("adv", 0, map[string]message.Value{"a": message.Number(1)})
	e := NewCountingEngine()
	mustAdd(t, e, "s1", message.Pred("a", message.OpEq, message.Number(1)))
	for i := 0; i < 7; i++ {
		e.Match(pub)
	}
	e.Compact()
	if got := e.MatchCount(); got != 7 {
		t.Fatalf("MatchCount after Compact = %d, want 7", got)
	}
	if got := e.Match(pub); len(got) != 1 || got[0] != "s1" {
		t.Fatalf("match after Compact = %v", got)
	}
}

// TestAutoCompactOnChurn verifies Remove triggers compaction once
// tombstones outnumber live entries (beyond the floor), so sustained
// churn cannot degrade matching unboundedly.
func TestAutoCompactOnChurn(t *testing.T) {
	e := NewCountingEngine()
	for i := 0; i < 200; i++ {
		mustAdd(t, e, fmt.Sprintf("s%03d", i), message.Pred("a", message.OpEq, message.Number(float64(i%10))))
	}
	for i := 0; i < 150; i++ {
		if err := e.Remove(fmt.Sprintf("s%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Without auto-compaction 150 tombstones would remain.
	if tomb := e.Tombstones(); tomb > autoCompactMinTombstones {
		t.Fatalf("%d tombstones survived churn, auto-compact never fired", tomb)
	}
	if e.Len() != 50 {
		t.Fatalf("Len = %d, want 50", e.Len())
	}
	pub := message.NewPublication("adv", 0, map[string]message.Value{"a": message.Number(3)})
	got := e.Match(pub)
	slices.Sort(got)
	var want []string
	for i := 150; i < 200; i++ {
		if i%10 == 3 {
			want = append(want, fmt.Sprintf("s%03d", i))
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("match after churn = %v, want %v", got, want)
	}
}
