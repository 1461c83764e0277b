package bitvector

import "testing"

// TestKernelsAllocationFree pins AndCount, the one pairwise word kernel
// under every closeness metric and first-fit walk, at zero allocations per
// evaluation. The measurement is the contract: it also catches what no
// reading of the source can, a compiler escape-analysis regression.
func TestKernelsAllocationFree(t *testing.T) {
	a := benchVector(DefaultCapacity, 0, 2)
	b := benchVector(DefaultCapacity, 13, 2)
	if n := testing.AllocsPerRun(100, func() {
		AndCount(a, b)
	}); n != 0 {
		t.Errorf("AndCount allocates %v times per round, want 0", n)
	}
}
