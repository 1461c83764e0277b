// Package grape reimplements the placement decision of GRAPE (Greedy
// Relocation Algorithm for Publishers of Events, the authors' prior work,
// cited as [5]), which the paper invokes after Phase 3: publishers start at
// the root of the freshly built overlay and are moved, one at a time, to
// the broker that minimizes either the total system message rate (load
// mode) or the rate-weighted average delivery distance (delay mode).
//
// The decision inputs are exactly those GRAPE uses: each publisher's
// per-broker matching traffic, derived from the bit-vector profiles of the
// subscriptions hosted at each broker. For a candidate attachment broker,
// the load score is the exact flow cost of filter-based routing on a tree —
// a publication crosses an edge if and only if a matching subscription
// exists beyond it — and the delay score is the hop distance to each
// delivery, weighted by delivered rate.
package grape

import (
	"fmt"
	"sort"
	"strings"

	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/overlaybuild"
)

// Mode selects GRAPE's optimization goal. GRAPE proper exposes a 0-100
// priority knob between the two; the paper uses it to minimize load, so
// load is the default in all greenps pipelines.
type Mode int

// Modes.
const (
	// ModeLoad minimizes total broker message rate.
	ModeLoad Mode = iota + 1
	// ModeDelay minimizes rate-weighted average delivery hop distance.
	ModeDelay
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeLoad:
		return "load"
	case ModeDelay:
		return "delay"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses a mode name.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "load":
		return ModeLoad, nil
	case "delay":
		return ModeDelay, nil
	default:
		return 0, fmt.Errorf("grape: unknown mode %q", s)
	}
}

// Placement maps each publisher's advertisement ID to its chosen broker.
type Placement map[string]string

// Relocate computes the placement of every publisher on the tree under a
// single objective. Brokers are scored per publisher; ties break toward
// the root, then by broker ID, which keeps results deterministic.
func Relocate(t *overlaybuild.Tree, pubs map[string]*bitvector.PublisherStats, mode Mode) (Placement, error) {
	switch mode {
	case ModeLoad:
		return RelocateWithPriority(t, pubs, 100)
	case ModeDelay:
		return RelocateWithPriority(t, pubs, 0)
	default:
		return nil, fmt.Errorf("grape: invalid mode %v", mode)
	}
}

// RelocateWithPriority implements GRAPE's priority knob from the original
// paper (ref [5]): loadPriority ∈ [0,100] weights the (normalized) load
// score against the delay score — 100 is pure load minimization (what the
// ICDCS'11 pipeline uses), 0 pure delay minimization, and intermediate
// values trade one for the other per publisher.
func RelocateWithPriority(t *overlaybuild.Tree, pubs map[string]*bitvector.PublisherStats, loadPriority int) (Placement, error) {
	if loadPriority < 0 || loadPriority > 100 {
		return nil, fmt.Errorf("grape: load priority %d out of [0,100]", loadPriority)
	}
	brokers := t.Brokers()
	if len(brokers) == 0 {
		return nil, fmt.Errorf("grape: empty tree")
	}
	adj := adjacency(t, brokers)

	advIDs := make([]string, 0, len(pubs))
	for advID := range pubs {
		advIDs = append(advIDs, advID)
	}
	sort.Strings(advIDs)

	w := float64(loadPriority) / 100
	out := make(Placement, len(advIDs))
	for _, advID := range advIDs {
		local := localVectors(t, brokers, advID)
		// Score every candidate under both objectives, then blend after
		// max-normalization so the two scales are comparable.
		loadScores := make([]float64, len(brokers))
		delayScores := make([]float64, len(brokers))
		var maxLoad, maxDelay float64
		for i, b := range brokers {
			loadScores[i], delayScores[i] = scoreCandidate(b, pubs[advID], local, adj)
			if loadScores[i] > maxLoad {
				maxLoad = loadScores[i]
			}
			if delayScores[i] > maxDelay {
				maxDelay = delayScores[i]
			}
		}
		best, bestScore := "", 0.0
		for i, b := range brokers {
			score := 0.0
			if maxLoad > 0 {
				score += w * loadScores[i] / maxLoad
			}
			if maxDelay > 0 {
				score += (1 - w) * delayScores[i] / maxDelay
			}
			if best == "" || score < bestScore-1e-12 ||
				(score < bestScore+1e-12 && betterTie(b, best, t.Root)) {
				best, bestScore = b, score
			}
		}
		out[advID] = best
	}
	return out, nil
}

// betterTie prefers the root, then lower IDs.
func betterTie(candidate, current, root string) bool {
	if current == root {
		return false
	}
	if candidate == root {
		return true
	}
	return candidate < current
}

// adjacency builds the undirected neighbor map of the tree over its
// sorted broker IDs, each neighbor list sorted.
func adjacency(t *overlaybuild.Tree, brokers []string) map[string][]string {
	adj := make(map[string][]string, len(brokers))
	for _, parent := range brokers {
		for _, k := range t.Children[parent] {
			adj[parent] = append(adj[parent], k)
			adj[k] = append(adj[k], parent)
		}
	}
	for _, b := range brokers {
		sort.Strings(adj[b])
	}
	return adj
}

// localVectors extracts, per broker, the OR of the hosted units' bit
// vectors for one publisher: the broker's local interest in that
// publisher's stream. Brokers with no interest are absent.
func localVectors(t *overlaybuild.Tree, brokers []string, advID string) map[string]*bitvector.Vector {
	out := make(map[string]*bitvector.Vector)
	for _, b := range brokers {
		var agg *bitvector.Vector
		for _, u := range t.Hosted[b] {
			v := u.Profile.Vector(advID)
			if v == nil || v.Count() == 0 {
				continue
			}
			if agg == nil {
				agg = v.Clone()
			} else {
				agg.Or(v)
			}
		}
		if agg != nil {
			out[b] = agg
		}
	}
	return out
}

// scoreCandidate computes both costs of attaching the publisher at broker
// b from one walk of the tree rooted there.
//
// load: the publisher's rate times the sum over tree edges of the
// fraction of its publications that must cross each edge — a publication
// crosses the edge toward a subtree iff the subtree holds a matching
// subscription (the down-vector OR). This is the exact per-edge flow of
// filter-based routing.
//
// delay: the sum over brokers of the delivered rate at that broker times
// its hop distance from b.
func scoreCandidate(b string, st *bitvector.PublisherStats,
	local map[string]*bitvector.Vector, adj map[string][]string) (load, delay float64) {
	type frame struct {
		node, parent string
		depth        int
	}
	// Iterative post-order: compute down-vectors rooted at b.
	var order []frame
	stack := []frame{{node: b, parent: "", depth: 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, f)
		for _, n := range adj[f.node] {
			if n != f.parent {
				stack = append(stack, frame{node: n, parent: f.node, depth: f.depth + 1})
			}
		}
	}
	down := make(map[string]*bitvector.Vector, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		f := order[i]
		var agg *bitvector.Vector
		if lv, ok := local[f.node]; ok {
			agg = lv.Clone()
		}
		for _, n := range adj[f.node] {
			if n == f.parent {
				continue
			}
			if dv, ok := down[n]; ok && dv != nil {
				if agg == nil {
					agg = dv.Clone()
				} else {
					agg.Or(dv)
				}
			}
		}
		down[f.node] = agg
	}
	for _, f := range order {
		// The attachment broker has no edge above it.
		if dv := down[f.node]; dv != nil && f.node != b {
			load += float64(st.Rate * dv.Fraction())
		}
		if lv, ok := local[f.node]; ok {
			delay += float64(st.Rate * lv.Fraction() * float64(f.depth))
		}
	}
	return load, delay
}
