// Fixture for the framework's audit mode: one live suppression (the
// analyzer still fires under it) and one stale directive (nothing fires
// there anymore). Audit must flag exactly the stale one.
package audit

// liveDirective suppresses a finding detflow still reports; in -audit
// mode the directive is consulted, marking it live.
func liveDirective(m map[string]float64) float64 {
	total := 0.0
	//greenvet:detflow-ok fixture justification: treat FP drift as acceptable
	for _, v := range m {
		total += v
	}
	return total
}

// staleDirective annotates a loop no analyzer flags (integer sums
// commute), the residue of a body that was once order-dependent.
func staleDirective(m map[string]int) int {
	total := 0
	//greenvet:detflow-ok stale: the body became commutative and nothing fires here
	for _, v := range m {
		total += v
	}
	return total
}
