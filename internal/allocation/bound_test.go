package allocation

import (
	"reflect"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/bitvector"
)

// profileState is what an input unit's profile must still read after an
// algorithm ran over it.
type profileState struct {
	prof  *bitvector.Profile
	snap  bitvector.ProfileSnapshot
	key   string
	count int
}

// profileStates reads the units' profiles, position for position.
func profileStates(units []*Unit) []profileState {
	out := make([]profileState, len(units))
	for i, u := range units {
		out[i] = profileState{u.Profile, u.Profile.Snapshot(), u.Profile.FingerprintKey(), u.Profile.Count()}
	}
	return out
}

// TestInputProfilesUnchanged holds every algorithm to leaving the input
// units' profiles exactly as it found them: the same profile, the same
// vectors bit for bit (Snapshot), the same fingerprint and the same count.
// A CRAM run's pool binds copies that share the input's vector words and
// ORs merged profiles out of them, so a write through any of those copies
// would show here.
func TestInputProfilesUnchanged(t *testing.T) {
	in := stdInput(t)
	want := profileStates(in.Units)
	algs := []struct {
		name string
		run  func() error
	}{
		{"cram-poset", func() error { _, err := (&CRAM{Metric: bitvector.MetricIOS}).Allocate(in); return err }},
		{"cram-exhaustive", func() error {
			_, err := (&CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true, Shards: 4}).Allocate(in)
			return err
		}},
		{"cram-ungrouped", func() error {
			_, err := (&CRAM{Metric: bitvector.MetricIOS, DisableGIFGrouping: true}).Allocate(in)
			return err
		}},
		{"fbf", func() error { _, err := (&FBF{Seed: 1}).Allocate(in); return err }},
		{"binpacking", func() error { _, err := (&BinPacking{}).Allocate(in); return err }},
		{"pairwise", func() error { _, err := (&Pairwise{Clusters: 10, Seed: 3}).Allocate(in); return err }},
		{"fitsbroker", func() error {
			FitsBroker(in.Brokers[0], in.Units[:40], in.Publishers)
			return nil
		}},
	}
	for _, alg := range algs {
		if err := alg.run(); err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		for i, got := range profileStates(in.Units) {
			w := want[i]
			if got.prof != w.prof || !reflect.DeepEqual(got.snap, w.snap) || got.key != w.key || got.count != w.count {
				t.Fatalf("%s changed unit %s's profile: count %d, was %d", alg.name, in.Units[i].ID, got.count, w.count)
			}
		}
	}
}

// TestRunProfilesBound holds a CRAM run to the one form of a profile inside
// it, the one bound to the run's publisher table: after start and after the
// clustering loop, every pool unit's compiled profile, every live GIF's
// profile, every GIF unit's profile and every merged unit's profile, parts
// that were merged again included, is bound to it. Each GIF unit carries the
// pool's very profile, a merged unit's compiled profile is its own, and
// after start each GIF holds its founder's pool profile — the first of its
// units in input order — not a copy. It runs poset mode with one-to-many
// clustering on and the sharded exhaustive scan.
func TestRunProfilesBound(t *testing.T) {
	in := stdInput(t)
	inputAt := make(map[*Unit]int, len(in.Units))
	for i, u := range in.Units {
		inputAt[u] = i
	}
	for _, c := range []*CRAM{
		{Metric: bitvector.MetricIOS},
		{Metric: bitvector.MetricIOS, ExhaustiveSearch: true, Shards: 4},
	} {
		name := "poset"
		if c.ExhaustiveSearch {
			name = "exhaustive-sharded"
		}
		t.Run(name, func(t *testing.T) {
			r, err := c.start(in)
			if err != nil {
				t.Fatal(err)
			}
			defer r.spill.close()
			if c.ExhaustiveSearch && r.shards == nil {
				t.Fatal("the exhaustive run is not sharded")
			}
			tab := r.pool.table
			bound := func(p *bitvector.Profile) bool { return tab.Bind(p) == p }
			pooled := checkPoolBound(t, r.pool, bound)
			for _, g := range r.live {
				founder := g.units[0]
				for _, u := range g.units {
					if inputAt[u.Unit] < inputAt[founder.Unit] {
						founder = u
					}
				}
				if g.profile != pooled[founder.Unit] {
					t.Fatalf("GIF %s holds %p, its founder %s's pool profile is %p", g.id, g.profile, founder.ID, pooled[founder.Unit])
				}
			}
			checkGIFsBound(t, r, pooled, bound)

			if err := r.cluster(); err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			if st.ClustersAccepted == 0 || !c.ExhaustiveSearch && st.OneToManyApplied == 0 {
				t.Fatalf("%d clusterings, %d one-to-many: the run does not exercise merged profiles", st.ClustersAccepted, st.OneToManyApplied)
			}
			pooled = checkPoolBound(t, r.pool, bound)
			checkGIFsBound(t, r, pooled, bound)
			merged := 0
			for u := range pooled {
				if !strings.HasPrefix(u.ID, "cram-u") {
					continue
				}
				if pooled[u] != u.Profile {
					t.Fatalf("merged unit %s is compiled with %p, its profile is %p", u.ID, pooled[u], u.Profile)
				}
				stack := []*Unit{u}
				for len(stack) > 0 {
					v := stack[len(stack)-1]
					stack = append(stack[:len(stack)-1], v.parts...)
					if v.parts != nil {
						merged++
						if !bound(v.Profile) {
							t.Fatalf("merged unit %s's profile is not bound to the run's table", v.ID)
						}
					}
				}
			}
			if merged != st.ClustersAccepted {
				t.Fatalf("found %d merged units, the run accepted %d clusterings", merged, st.ClustersAccepted)
			}
		})
	}
}

// checkPoolBound requires every compiled unit of the pool to hold a bound
// profile and returns each pool unit's.
func checkPoolBound(t *testing.T, p *pool, bound func(*bitvector.Profile) bool) map[*Unit]*bitvector.Profile {
	t.Helper()
	pooled := make(map[*Unit]*bitvector.Profile, p.size())
	for _, bl := range p.blocks {
		for k, u := range bl.units {
			if !bound(bl.stream[k].prof) {
				t.Fatalf("pool unit %s's compiled profile is not bound to the run's table", u.ID)
			}
			pooled[u] = bl.stream[k].prof
		}
	}
	return pooled
}

// checkGIFsBound requires every live GIF's profile to be bound and each of
// its units to carry the pool's profile of that unit.
func checkGIFsBound(t *testing.T, r *cramRun, pooled map[*Unit]*bitvector.Profile, bound func(*bitvector.Profile) bool) {
	t.Helper()
	for _, g := range r.live {
		if !bound(g.profile) {
			t.Fatalf("GIF %s's profile is not bound to the run's table", g.id)
		}
		for _, u := range g.units {
			if u.prof != pooled[u.Unit] {
				t.Fatalf("GIF %s's unit %s carries %p, the pool compiled it with %p", g.id, u.ID, u.prof, pooled[u.Unit])
			}
		}
	}
}
