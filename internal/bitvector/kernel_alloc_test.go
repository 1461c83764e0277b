package bitvector

import "testing"

// TestKernelsAllocationFree pins the //greenvet:hotpath declaration on
// AndCount with a measurement: a steady-state evaluation allocates nothing.
// hotalloc proves the absence of allocation-inducing constructs statically;
// this keeps the claim honest against compiler escape-analysis regressions.
func TestKernelsAllocationFree(t *testing.T) {
	a := benchVector(DefaultCapacity, 0, 2)
	b := benchVector(DefaultCapacity, 13, 2)
	if n := testing.AllocsPerRun(100, func() {
		AndCount(a, b)
	}); n != 0 {
		t.Errorf("AndCount allocates %v times per round, want 0", n)
	}
}
