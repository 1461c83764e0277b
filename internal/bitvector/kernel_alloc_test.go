package bitvector

import "testing"

// TestKernelsAllocationFree pins the //greenvet:hotpath declaration on
// AndCount with a measurement: a steady-state evaluation, on both the
// aligned word loop and the offset walker (andCountOffset, which the
// misaligned pair reaches), allocates nothing. hotalloc proves the absence of
// allocation-inducing constructs statically; this keeps the claim honest
// against compiler escape-analysis regressions.
func TestKernelsAllocationFree(t *testing.T) {
	a := benchVector(DefaultCapacity, 0, 2)
	aligned := benchVector(DefaultCapacity, 128, 2)
	misaligned := benchVector(DefaultCapacity, 13, 2)
	for _, pair := range []struct {
		name string
		b    *Vector
	}{
		{"aligned", aligned},
		{"misaligned", misaligned},
	} {
		if n := testing.AllocsPerRun(100, func() {
			AndCount(a, pair.b)
		}); n != 0 {
			t.Errorf("%s kernel allocates %v times per round, want 0", pair.name, n)
		}
	}
}
