package bitvector

// This file implements the cheap closeness upper bounds that let CRAM's
// exhaustive partner scan skip exact Closeness evaluations which provably
// cannot beat the current best candidate (DESIGN.md §9). A Summary
// condenses a profile to O(publishers) integers; ClosenessUpperBound combines two
// summaries into an admissible bound — never below the true closeness —
// in a merge walk over the sorted publisher lists, with no per-bit work.

// pubSummary condenses one per-publisher vector: its advertisement ID and
// rank (see Profile), cached popcount, and window bounds.
type pubSummary struct {
	advID       string
	rank        int32
	count       int
	first, last int
}

// Summary is an immutable condensed view of a Profile taken at a point in
// time: per-publisher set-bit counts and window bounds, plus the total.
// It is invalidated by any mutation of the underlying profile — callers
// (CRAM's gif bookkeeping) re-Summarize after merging.
//
// Concurrency: a Summary is never mutated after Summarize returns, so any
// number of goroutines may use it concurrently.
type Summary struct {
	// pubs is sorted by advID (inherited from Profile's sorted entries)
	// and holds only publishers with at least one set bit.
	pubs []pubSummary
	// total is the profile's total set-bit count (Profile.Count).
	total int
	// table is the summarized profile's table, whose ranks pubs carry; nil
	// when it was unbound.
	table *PublisherTable
}

// Summarize captures a profile's summary. O(publishers): every count is a
// cached popcount load. The summary of a bound profile is keyed by its
// ranks, as the profile is.
func Summarize(p *Profile) *Summary {
	s := &Summary{pubs: make([]pubSummary, 0, len(p.entries)), table: p.table}
	for i := range p.entries {
		e := &p.entries[i]
		v := &e.vec
		if v.count == 0 {
			continue
		}
		s.pubs = append(s.pubs, pubSummary{advID: e.advID, rank: e.rank, count: v.count, first: v.firstID, last: v.lastID})
		s.total += v.count
	}
	return s
}

// intersectUpperBound returns an admissible upper bound on
// IntersectCount(a, b) for the summarized profiles: per common publisher,
// the intersection can set at most min(countA, countB) bits and at most
// one bit per position of the window overlap. The walk is keyed by rank when
// both summaries are of profiles bound to one table.
func intersectUpperBound(a, b *Summary) int {
	ranked := byRank(a.table, b.table)
	ub := 0
	i, j := 0, 0
	for i < len(a.pubs) && j < len(b.pubs) {
		pa, pb := &a.pubs[i], &b.pubs[j]
		switch c := cmpKey(pa.rank, pb.rank, pa.advID, pb.advID, ranked); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			m := min(pa.count, pb.count)
			lo, hi := max(pa.first, pb.first), min(pa.last, pb.last)
			if w := hi - lo + 1; w < m {
				m = w
			}
			if m > 0 {
				ub += m
			}
			i++
			j++
		}
	}
	return ub
}

// ClosenessUpperBound returns a value >= Closeness(m, pa, pb) for the
// profiles summarized by a and b (admissibility proofs in DESIGN.md §9).
// All four bounds are derived from iUB, an upper bound on the intersection
// cardinality, combined with the exact totals:
//
//	INTERSECT: iUB, since i <= iUB.
//	IOS:       iUB² / (|a|+|b|); the denominator is exact and i <= iUB.
//	IOU:       iUB² / max(|a|, |b|, |a|+|b|−iUB); |a ∪ b| = |a|+|b|−i is
//	           at least each of the three terms.
//	XOR:       min(XorCap, 1/(|a|+|b|−2·iUB)); |a ⊕ b| = |a|+|b|−2i >=
//	           |a|+|b|−2·iUB, and 1/x is decreasing. XorCap when the lower
//	           bound on the XOR cardinality is not positive.
//
// Each bound is monotone in iUB through float64 operations that are
// themselves monotone (int-to-float conversion, multiplication, division
// by a positive value), so rounding never makes the bound inadmissible.
func ClosenessUpperBound(m Metric, a, b *Summary) float64 {
	iUB := intersectUpperBound(a, b)
	switch m {
	case MetricIntersect:
		return float64(iUB)
	case MetricIOS:
		den := float64(a.total + b.total)
		if den == 0 {
			return 0
		}
		return float64(iUB) * float64(iUB) / den
	case MetricIOU:
		unionLB := max(a.total, b.total, a.total+b.total-iUB)
		if unionLB == 0 {
			return 0
		}
		return float64(iUB) * float64(iUB) / float64(unionLB)
	case MetricXor:
		xorLB := a.total + b.total - 2*iUB
		if xorLB <= 0 {
			return XorCap
		}
		if ub := 1 / float64(xorLB); ub < XorCap {
			return ub
		}
		return XorCap
	default:
		return 0
	}
}
