package bitvector

// This file extends the summary layer (summary.go) from per-pair to
// per-shard pruning: an Envelope folds the Summaries of a whole shard of
// profiles into one aggregate Summary that upper-bounds every member, so
// ClosenessUpperBound(m, g, env) >= Closeness(m, g, h) for every member
// h — one bound evaluation can discard an entire shard.
//
// Admissibility follows from the monotonicity of the bound formulas
// (documented on ClosenessUpperBound): every formula is non-decreasing in
// the intersection upper bound iUB and non-increasing in the partner's
// total. The envelope therefore takes, per publisher, the most permissive
// member values — count = max over members, window = [min first, max
// last] — which can only raise iUB against any probe, and total = min
// over member totals, which can only raise the IOS/IOU/XOR bounds. Both
// substitutions move every formula weakly upward, so for any probe g and
// member h:
//
//	ub(g, env) >= ub(g, h) >= Closeness(g, h)
//
// Staleness is one-sided: an envelope built over a superset of the
// current members is still admissible (extra members only widened it), so
// shards may defer rebuilds after removals and rebuild only when a member
// is added or mutated. The reverse direction — using an envelope that
// predates an addition — is unsound and must not happen; callers gate it
// with a dirty flag.
type Envelope struct {
	pubs  []pubSummary // count=max, first=min, last=max over members
	merge []pubSummary // double-buffer for the Absorb merge walk
	total int          // min over member totals
	n     int          // members absorbed since Reset
	// table is the one table every member's summary is keyed by, nil when
	// they are not all bound to one; pubs carry its ranks.
	table *PublisherTable
	out   Summary // materialized view handed to ClosenessUpperBound
}

// Reset empties the envelope, keeping its buffers for the next build.
func (e *Envelope) Reset() {
	e.pubs = e.pubs[:0]
	e.total = 0
	e.n = 0
	e.table = nil
}

// Absorb folds one member summary into the envelope: a merge walk over
// the two sorted publisher lists taking max counts and union windows,
// plus the running min of totals. O(|e.pubs| + |s.pubs|). The walk is keyed
// by rank while every member absorbed is bound to one table.
func (e *Envelope) Absorb(s *Summary) {
	if e.n == 0 {
		e.total = s.total
		e.table = s.table
	} else if s.total < e.total {
		e.total = s.total
	}
	e.n++
	ranked := byRank(e.table, s.table)
	if !ranked {
		e.table = nil
	}
	dst := e.merge[:0]
	i, j := 0, 0
	for i < len(e.pubs) && j < len(s.pubs) {
		pe, ps := &e.pubs[i], &s.pubs[j]
		switch c := cmpKey(pe.rank, ps.rank, pe.advID, ps.advID, ranked); {
		case c < 0:
			dst = append(dst, *pe)
			i++
		case c > 0:
			dst = append(dst, *ps)
			j++
		default:
			m := *pe
			if ps.count > m.count {
				m.count = ps.count
			}
			if ps.first < m.first {
				m.first = ps.first
			}
			if ps.last > m.last {
				m.last = ps.last
			}
			dst = append(dst, m)
			i++
			j++
		}
	}
	dst = append(dst, e.pubs[i:]...)
	dst = append(dst, s.pubs[j:]...)
	e.pubs, e.merge = dst, e.pubs
}

// Bound returns the envelope as a Summary for ClosenessUpperBound. The
// returned pointer aliases the envelope's buffers: it is valid until the
// next Absorb or Reset and must not outlive them.
func (e *Envelope) Bound() *Summary {
	e.out.pubs = e.pubs
	e.out.total = e.total
	e.out.table = e.table
	return &e.out
}

// Dominant returns the summarized profile's dominant publisher — the one
// with the largest set-bit count, ties to the smallest advertisement ID —
// and the start of its window. ok is false for an empty summary. CRAM's
// shard router keys on this: profiles that concentrate their bits under
// the same publisher and window region land in the same shard, which is
// what makes the shard envelopes tight.
func (s *Summary) Dominant() (advID string, first int, ok bool) {
	best := -1
	for i := range s.pubs {
		// pubs is sorted by advID ascending, so strict > keeps the
		// smallest ID among equal counts.
		if best < 0 || s.pubs[i].count > s.pubs[best].count {
			best = i
		}
	}
	if best < 0 {
		return "", 0, false
	}
	return s.pubs[best].advID, s.pubs[best].first, true
}
