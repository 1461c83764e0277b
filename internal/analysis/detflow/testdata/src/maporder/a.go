// Fixture for detflow's map-order prover: each flagged loop carries an
// expectation comment. The clean loops are the four shapes it accepts
// without a directive — collect then sort, integer accumulation,
// map-element writes, nested ranges and if guards over pure expressions —
// and every other body is flagged, commutative or not.
package maporder

import "sort"

// pickAny returns an arbitrary element — the classic order-dependent loop:
// which key comes back depends on the visit order.
func pickAny(m map[string]int) string {
	for k := range m { // want "range over map m has an order-dependent body"
		return k
	}
	return ""
}

// sumFloats accumulates floats; FP addition is not associative, so the
// result depends on visit order.
func sumFloats(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m { // want "order-dependent body"
		total += v
	}
	return total
}

// keysUnsorted lets the append order escape without a laundering sort.
func keysUnsorted(m map[string]int) []string {
	var out []string
	for k := range m { // want "order-dependent body"
		out = append(out, k)
	}
	return out
}

// sumInts commutes: integer accumulation is associative.
func sumInts(m map[string]int) (int, int) {
	total, n := 0, 0
	for _, v := range m {
		total += v
		n++
	}
	return total, n
}

// keysSorted is the canonical accepted pattern: append, then sort.
func keysSorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// index writes each iteration to a map slot; iterations cannot collide.
func index(m map[string]int) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v > 0
	}
	return out
}

// histogram nests a range and an if guard around an integer tally.
func histogram(m map[string][]int) map[int]int {
	count := make(map[int]int)
	for _, vs := range m {
		for _, v := range vs {
			if v > 0 {
				count[v]++
			}
		}
	}
	return count
}

// justified carries a directive explaining why order cannot matter.
func justified(m map[string]bool) bool {
	//greenvet:detflow-ok at most one entry is true by construction in this fixture
	for _, v := range m {
		if v {
			return true
		}
	}
	return false
}

// unjustified shows that a bare directive is rejected: suppression without
// a reason still fails the build. The directive sits above the range, so
// the finding it reports is the range's.
func unjustified(m map[string]int) int {
	//greenvet:detflow-ok
	for k := range m { // want "suppression requires a justification"
		return m[k]
	}
	return 0
}

// The loops below commute, but their bodies use shapes the prover does not
// accept; each needs a rewrite into an accepted shape or a directive.

// pruned deletes while iterating.
func pruned(m map[string]int) {
	for k, v := range m { // want "order-dependent body"
		if v == 0 {
			delete(m, k)
		}
	}
}

// skipping filters with continue.
func skipping(m map[string]int) int {
	total := 0
	for _, v := range m { // want "order-dependent body"
		if v < 0 {
			continue
		}
		total += v
	}
	return total
}

// declared declares a local with var.
func declared(m map[string]int) int {
	total := 0
	for _, v := range m { // want "order-dependent body"
		var d = v * 2
		total += d
	}
	return total
}

// defined declares a fresh local with :=.
func defined(m map[string]int) int {
	total := 0
	for _, v := range m { // want "order-dependent body"
		d := v * 2
		total += d
	}
	return total
}

// bySlot writes a slice element indexed by the loop key.
func bySlot(m map[int]int, out []int) {
	for k, v := range m { // want "order-dependent body"
		out[k] = v
	}
}

// grouped appends to a map of slices.
func grouped(m map[string]int) map[int][]string {
	byLen := make(map[int][]string)
	for k := range m { // want "order-dependent body"
		byLen[len(k)] = append(byLen[len(k)], k)
	}
	return byLen
}

// initGuard guards with an if init statement.
func initGuard(m map[string]int) int {
	n := 0
	for _, v := range m { // want "order-dependent body"
		if d := v * 2; d > 0 {
			n++
		}
	}
	return n
}

// split guards with an else branch.
func split(m map[string]int) (int, int) {
	pos, neg := 0, 0
	for _, v := range m { // want "order-dependent body"
		if v > 0 {
			pos++
		} else {
			neg++
		}
	}
	return pos, neg
}

// blank assigns to the blank identifier.
func blank(m map[string]int) {
	for _, v := range m { // want "order-dependent body"
		_ = v
	}
}

// block wraps the body in a bare block.
func block(m map[string]int) int {
	total := 0
	for _, v := range m { // want "order-dependent body"
		{
			total += v
		}
	}
	return total
}

// pair writes two map elements in one assignment.
func pair(m map[string]int, a, b map[string]int) {
	for k, v := range m { // want "order-dependent body"
		a[k], b[k] = v, -v
	}
}
