package poset

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/bitvector"
)

// fuzzIDs are the advertisement IDs FuzzPosetOps draws profiles over. The
// first two land on one bit of a publisher summary (FNV-1a 42 mod 64), so a
// pair of profiles on them is disjoint but looks alike to the summary.
var fuzzIDs = []string{"STOCK-IBM", "STOCK-ORCL", "STOCK-YHOO", "STOCK-MSFT",
	"STOCK-AAPL", "STOCK-SUNW", "STOCK-INTC", "STOCK-CSCO"}

// refSearchClosest is SearchClosest as it was before publisher summaries:
// every child reached is evaluated.
func refSearchClosest(p *Poset, query *bitvector.Profile, metric bitvector.Metric, skip func(*Node) bool) SearchResult {
	var res SearchResult
	prunable := metric != bitvector.MetricXor
	seen := make(visited, (p.slots+63)/64)
	type item struct {
		node      *Node
		closeness float64
	}
	level := []item{{node: p.root}}
	for rootLevel := true; len(level) > 0; rootLevel = false {
		var next []item
		for _, it := range level {
			for _, ch := range it.node.Children() {
				if !seen.mark(ch.slot) {
					continue
				}
				res.Computations++
				c := bitvector.Closeness(metric, query, ch.Profile)
				if prunable && c == 0 {
					continue
				}
				if !skip(ch) && (res.Best == nil || c > res.Closeness ||
					(c == res.Closeness && ch.ID < res.Best.ID)) {
					res.Best, res.Closeness = ch, c
				}
				if prunable && !rootLevel && c < it.closeness {
					continue
				}
				next = append(next, item{node: ch, closeness: c})
			}
		}
		level = next
	}
	return res
}

// refFindParents and refFindChildren are Insert's two walks as they were
// before publisher summaries, every pair through bitvector.Relate, counted
// in *relates.
func refFindParents(p *Poset, prof *bitvector.Profile, relates *int) (parents []*Node, equal *Node) {
	seen := make(visited, (p.slots+63)/64)
	queue := []*Node{p.root}
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		descended := false
		for _, ch := range cur.Children() {
			if seen.has(ch.slot) {
				descended = true
				continue
			}
			*relates++
			switch bitvector.Relate(ch.Profile, prof) {
			case bitvector.RelEqual:
				return nil, ch
			case bitvector.RelSuperset:
				seen.mark(ch.slot)
				queue = append(queue, ch)
				descended = true
			}
		}
		if !descended {
			parents = append(parents, cur)
		}
	}
	return parents, nil
}

func refFindChildren(p *Poset, parents []*Node, prof *bitvector.Profile, relates *int) []*Node {
	var children []*Node
	seen := make(visited, (p.slots+63)/64)
	var queue []*Node
	enqueue := func(n *Node) {
		if seen.mark(n.slot) {
			queue = append(queue, n)
		}
	}
	for _, par := range parents {
		for _, ch := range par.Children() {
			enqueue(ch)
		}
	}
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		*relates++
		switch bitvector.Relate(prof, cur.Profile) {
		case bitvector.RelSuperset:
			children = append(children, cur)
		case bitvector.RelIntersect:
			for _, ch := range cur.Children() {
				enqueue(ch)
			}
		}
	}
	return p.maximalOnly(children)
}

// fuzzScript reads FuzzPosetOps' input one byte at a time, 0 past its end.
type fuzzScript struct {
	data []byte
	ids  []string
	tab  *bitvector.PublisherTable
}

func (s *fuzzScript) next() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

// profile decodes a header byte — bit 0 binds the profile to the table, the
// rest pick 1 to len(ids) entries — and per entry an ID byte and a byte whose
// set bits are the entry's message IDs 0–7. An entry may repeat an ID or
// set no bit, so the profile may be empty.
func (s *fuzzScript) profile() *bitvector.Profile {
	hdr := s.next()
	p := bitvector.NewProfile(64)
	for k := 1 + int(hdr>>1)%len(s.ids); k > 0; k-- {
		id, bits := s.ids[int(s.next())%len(s.ids)], s.next()
		for b := 0; b < 8; b++ {
			if bits&(1<<b) != 0 {
				p.Record(id, b)
			}
		}
	}
	if hdr&1 == 1 {
		return s.tab.Bind(p)
	}
	return p
}

// FuzzPosetOps runs a script of Insert, Remove and search steps decoded from
// the input against the walks as they were before publisher summaries
// (refSearchClosest, refFindParents, refFindChildren), on profiles over 1 to
// 8 advertisement IDs, each bound to one publisher table or unbound. After
// every Insert, the new node's edges and the relationships counted equal the
// reference's; every search returns the reference's best node, closeness and
// computation count under all four metrics; and the poset keeps its
// invariants, publisher summaries included, after every step.
//
// Script: a byte choosing how many IDs are in use, then steps, an opcode byte
// each: 0 or 1 inserts a decoded profile, 2 removes the live node a byte
// picks, 3 searches — with the profile of the live node an even byte picks,
// skipping that node, or, after an odd byte, a decoded profile.
func FuzzPosetOps(f *testing.F) {
	f.Add([]byte{7, 0, 0, 0, 0x0f, 0, 1, 1, 0x0f, 0, 5, 2, 0x33, 4, 0x0c, 3, 2, 3, 1, 0, 0, 0xff})
	f.Add([]byte{3, 0, 6, 0, 0xff, 2, 0x01, 0, 0, 1, 0x0f, 0, 2, 0, 0x3c, 2, 1, 3, 0, 3, 1, 1, 3, 0x0f})
	stats := make(map[string]*bitvector.PublisherStats, len(fuzzIDs))
	for _, id := range fuzzIDs {
		stats[id] = &bitvector.PublisherStats{AdvID: id, Rate: 1, Bandwidth: 1, LastSeq: 7}
	}
	tab := bitvector.NewPublisherTable(stats, nil)
	one := func(id string) uint64 {
		p := bitvector.NewProfile(64)
		p.Record(id, 0)
		return p.PublisherMask()
	}
	if one(fuzzIDs[0]) != one(fuzzIDs[1]) {
		f.Fatalf("%s and %s no longer share a summary bit; the collision seed tests nothing", fuzzIDs[0], fuzzIDs[1])
	}
	metrics := []bitvector.Metric{bitvector.MetricIntersect, bitvector.MetricXor,
		bitvector.MetricIOS, bitvector.MetricIOU}

	f.Fuzz(func(t *testing.T, data []byte) {
		s := &fuzzScript{data: data, tab: tab}
		s.ids = fuzzIDs[:1+int(s.next())%len(fuzzIDs)]
		p := New()
		var live []*Node
		for step := 0; len(s.data) > 0 && step < 48; step++ {
			switch s.next() % 4 {
			case 0, 1:
				prof := s.profile()
				id := fmt.Sprintf("n%02d", step)
				var relates int
				var wantParents, wantChildren []*Node
				var equal *Node
				if !prof.Empty() {
					wantParents, equal = refFindParents(p, prof, &relates)
					if equal == nil {
						wantChildren = refFindChildren(p, wantParents, prof, &relates)
					}
				}
				before := p.RelateCount()
				n, err := p.Insert(id, prof, nil)
				if got := p.RelateCount() - before; got != relates {
					t.Fatalf("step %d: Insert counted %d relationships, the reference %d", step, got, relates)
				}
				if wantErr := prof.Empty() || equal != nil; (err != nil) != wantErr {
					t.Fatalf("step %d: Insert error %v, want one: %v", step, err, wantErr)
				}
				if err == nil {
					live = append(live, n)
					byID := func(a, b *Node) int { return strings.Compare(a.ID, b.ID) }
					slices.SortFunc(wantParents, byID)
					slices.SortFunc(wantChildren, byID)
					if got, want := strings.Join(names(n.parents), ","), strings.Join(names(wantParents), ","); got != want {
						t.Fatalf("step %d: %s has parents [%s], the reference [%s]", step, id, got, want)
					}
					if got, want := strings.Join(names(n.children), ","), strings.Join(names(wantChildren), ","); got != want {
						t.Fatalf("step %d: %s has children [%s], the reference [%s]", step, id, got, want)
					}
				}
			case 2:
				if b := s.next(); len(live) > 0 {
					k := int(b) % len(live)
					if err := p.Remove(live[k].ID); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					live = slices.Delete(live, k, k+1)
				}
			case 3:
				var query *bitvector.Profile
				var self *Node
				if b := s.next(); b%2 == 0 && len(live) > 0 {
					self = live[int(b/2)%len(live)]
					query = self.Profile
				} else {
					query = s.profile()
				}
				skip := func(n *Node) bool { return n == self }
				for _, m := range metrics {
					got, want := p.SearchClosest(query, m, skip), refSearchClosest(p, query, m, skip)
					if got.Best != want.Best || got.Closeness != want.Closeness || got.Computations != want.Computations {
						t.Fatalf("step %d, %v: SearchClosest = %q, %v, %d computations; the reference %q, %v, %d",
							step, m, bestID(got), got.Closeness, got.Computations, bestID(want), want.Closeness, want.Computations)
					}
				}
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}

// bestID is the ID of the search's best node, "" when it found none.
func bestID(r SearchResult) string {
	if r.Best == nil {
		return ""
	}
	return r.Best.ID
}
