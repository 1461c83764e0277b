package allocation

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

	"github.com/greenps/greenps/internal/bitvector"
)

// Pairwise reproduces the two derivatives of Riabov et al.'s pairwise
// clustering algorithm used as related-work comparison points
// (Section VI): clusters are formed by repeatedly merging the closest pair
// under the XOR closeness metric until a target cluster count is reached,
// with no resource awareness, and clusters are then assigned to brokers at
// random. PAIRWISE-K sets the target to the cluster count computed by
// CRAM-XOR; PAIRWISE-N sets it to the number of brokers. Like the paper's
// derivatives, this implementation clusters bit-vector profiles rather
// than the subscription language.
type Pairwise struct {
	// Clusters is the a-priori cluster count K the pairwise algorithm
	// requires. Must be >= 1.
	Clusters int
	// Variant labels the run ("PAIRWISE-K" or "PAIRWISE-N").
	Variant string
	// Seed drives the random cluster-to-broker assignment.
	Seed int64
}

var _ Algorithm = (*Pairwise)(nil)

// Name implements Algorithm.
func (p *Pairwise) Name() string {
	if p.Variant != "" {
		return p.Variant
	}
	return fmt.Sprintf("PAIRWISE-%d", p.Clusters)
}

// pwCand is one cluster's best-known merge partner. Stale entries are
// detected by version counters and recomputed on pop, keeping the heap
// O(live clusters) instead of O(n²).
type pwCand struct {
	a, b      int
	versionA  int
	versionB  int
	closeness float64
}

type pwHeap []pwCand

func (h pwHeap) Len() int      { return len(h) }
func (h pwHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h pwHeap) Less(i, j int) bool {
	if h[i].closeness != h[j].closeness {
		return h[i].closeness > h[j].closeness
	}
	if h[i].a != h[j].a {
		return h[i].a < h[j].a
	}
	return h[i].b < h[j].b
}
func (h *pwHeap) Push(x any) { *h = append(*h, x.(pwCand)) }
func (h *pwHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// pwCluster is one mutable cluster.
type pwCluster struct {
	units   []*Unit
	profile *bitvector.Profile
	live    bool
	version int
}

// Allocate implements Algorithm.
func (p *Pairwise) Allocate(in *Input) (*Assignment, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if p.Clusters < 1 {
		return nil, fmt.Errorf("%s: cluster count %d must be >= 1", p.Name(), p.Clusters)
	}

	// Pre-group units with identical profiles. Under the XOR metric two
	// equal profiles have the capped maximum closeness, so pairwise would
	// merge them first anyway — and merging them leaves the merged profile
	// (hence every other pair's closeness) unchanged. Grouping up front is
	// therefore behavior-preserving and removes the degenerate cap-tie
	// churn.
	byKey := make(map[string]*pwCluster)
	var clusters []*pwCluster
	for _, u := range in.Units {
		key := u.Profile.FingerprintKey()
		cl, ok := byKey[key]
		if !ok {
			cl = &pwCluster{profile: u.Profile.Clone(), live: true}
			byKey[key] = cl
			clusters = append(clusters, cl)
		}
		cl.units = append(cl.units, u)
	}
	live := len(clusters)

	// bestPartner scans all live clusters for i's closest partner.
	bestPartner := func(i int) (pwCand, bool) {
		ci := clusters[i]
		best := pwCand{a: -1}
		for j, cj := range clusters {
			if j == i || !cj.live {
				continue
			}
			c := bitvector.Closeness(bitvector.MetricXor, ci.profile, cj.profile)
			if best.a < 0 || c > best.closeness {
				x, y, vx, vy := i, j, ci.version, cj.version
				if y < x {
					x, y, vx, vy = y, x, vy, vx
				}
				best = pwCand{a: x, b: y, versionA: vx, versionB: vy, closeness: c}
			}
		}
		return best, best.a >= 0
	}

	h := &pwHeap{}
	for i := range clusters {
		if cand, ok := bestPartner(i); ok {
			*h = append(*h, cand)
		}
	}
	heap.Init(h)

	for live > p.Clusters && h.Len() > 0 {
		cand := heap.Pop(h).(pwCand)
		ca, cb := clusters[cand.a], clusters[cand.b]
		switch {
		case !ca.live && !cb.live:
			continue
		case !ca.live || !cb.live:
			// Partner died in a merge: rescan for the surviving side.
			idx := cand.a
			if !ca.live {
				idx = cand.b
			}
			if c2, ok := bestPartner(idx); ok {
				heap.Push(h, c2)
			}
			continue
		case ca.version != cand.versionA || cb.version != cand.versionB:
			// A profile grew since this entry was pushed: revalidate just
			// this pair (O(1) closeness evaluations, no rescan) and
			// reinsert it at its current value.
			c := bitvector.Closeness(bitvector.MetricXor, ca.profile, cb.profile)
			heap.Push(h, pwCand{a: cand.a, b: cand.b,
				versionA: ca.version, versionB: cb.version, closeness: c})
			continue
		}
		// Merge b into a.
		ca.units = append(ca.units, cb.units...)
		ca.profile.Or(cb.profile)
		ca.version++
		cb.live = false
		live--
		if live <= p.Clusters {
			break
		}
		if c2, ok := bestPartner(cand.a); ok {
			heap.Push(h, c2)
		}
	}

	// Random assignment of clusters to brokers. Like the paper's
	// derivatives, no capacity is checked: the resulting overload is
	// exactly what the evaluation exposes.
	rng := rand.New(rand.NewSource(p.Seed))
	brokers := sortBrokersByCapacity(in.Brokers)
	out := &Assignment{
		ByBroker: make(map[string][]*Unit),
		Loads:    make(map[string]BrokerLoad),
		Specs:    make(map[string]*BrokerSpec, len(brokers)),
	}
	for _, b := range brokers {
		out.Specs[b.ID] = b
	}
	var liveIdx []int
	for i, c := range clusters {
		if c.live {
			liveIdx = append(liveIdx, i)
		}
	}
	sort.Ints(liveIdx)
	if len(liveIdx) > len(brokers) {
		return nil, fmt.Errorf("%s: %d clusters exceed %d brokers", p.Name(), len(liveIdx), len(brokers))
	}
	perm := rng.Perm(len(brokers))
	mergedID := 0
	for k, ci := range liveIdx {
		c := clusters[ci]
		spec := brokers[perm[k]]
		mergedID++
		unit := MergeUnits(fmt.Sprintf("pw-c%d", mergedID), c.units...)
		unit.fill()
		inLoad := bitvector.EstimateLoad(unit.Profile, in.Publishers)
		out.ByBroker[spec.ID] = append(out.ByBroker[spec.ID], unit)
		out.Loads[spec.ID] = BrokerLoad{
			Input:   inLoad,
			Output:  unit.Load,
			Filters: len(unit.Members),
		}
	}
	return out, nil
}
