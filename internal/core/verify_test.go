package core_test

import (
	"slices"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/allocation"
	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/sim"
	"github.com/greenps/greenps/internal/workload"
)

// TestVerifyRefusesPlantedFaults starts each case from the golden scenario's
// CRAM-IOS plan, which verifies, plants one fault and requires Verify to
// refuse it with an error naming the check and the broker, subscription or
// advertisement at fault.
func TestVerifyRefusesPlantedFaults(t *testing.T) {
	infos := goldenInfos(t)
	pubs := core.PublisherStats(infos)
	plan := func() *core.Plan {
		p, err := core.ComputePlan(infos, core.Config{Algorithm: core.AlgCRAMIOS, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := core.Verify(plan(), infos); err != nil {
		t.Fatalf("the unplanted plan is refused: %v", err)
	}
	// leaf returns the first broker in ID order that hosts units and has no
	// children, and its parent.
	leaf := func(p *core.Plan) (child, parent string) {
		for _, b := range p.Tree.Brokers() {
			for _, c := range p.Tree.Children[b] {
				if len(p.Tree.Children[c]) == 0 && len(p.Tree.Hosted[c]) > 0 {
					return c, b
				}
			}
		}
		t.Fatal("the plan has no leaf under a parent")
		return "", ""
	}
	cases := []struct {
		name  string
		plant func(p *core.Plan) (check, names string)
	}{
		{"a subscription hosted twice", func(p *core.Plan) (string, string) {
			c, parent := leaf(p)
			u := p.Tree.Hosted[c][0]
			p.Tree.Hosted[parent] = append(p.Tree.Hosted[parent], u)
			return "hosting:", u.Members[0].SubID
		}},
		{"a subscription dropped", func(p *core.Plan) (string, string) {
			c, _ := leaf(p)
			u := p.Tree.Hosted[c][0]
			p.Tree.Hosted[c][0] = &allocation.Unit{ID: u.ID, Members: u.Members[1:], Profile: u.Profile, Load: u.Load}
			delete(p.Subscribers, u.Members[0].SubID)
			return "hosting:", u.Members[0].SubID
		}},
		{"a hosted subscription not in the BIA", func(p *core.Plan) (string, string) {
			c, _ := leaf(p)
			stranger := allocation.NewSubscriptionUnit("u-stranger", "stranger", bitvector.NewProfile(0), bitvector.Load{})
			p.Tree.Hosted[c] = append(p.Tree.Hosted[c], stranger)
			p.Subscribers["stranger"] = c
			return "hosting:", `"stranger"`
		}},
		{"a subscription mapped off its broker", func(p *core.Plan) (string, string) {
			c, parent := leaf(p)
			sub := p.Tree.Hosted[c][0].Members[0].SubID
			p.Subscribers[sub] = parent
			return "subscribers:", sub
		}},
		{"children listed for a ghost broker", func(p *core.Plan) (string, string) {
			p.Tree.Children["ghost"] = []string{p.Tree.Root}
			return "tree:", `"ghost"`
		}},
		{"a publisher placed off the tree", func(p *core.Plan) (string, string) {
			var adv string
			for a := range p.Publishers {
				if adv == "" || a < adv {
					adv = a
				}
			}
			p.Publishers[adv] = "nowhere"
			return "publishers:", `"` + adv + `"`
		}},
		{"a takeover overrun", func(p *core.Plan) (string, string) {
			// A parent takes over a child's hosted units past its output
			// bandwidth; the child stays behind as an empty leaf. What the
			// parent then sends is at least its own and the child's units'
			// bandwidth plus, per other child, the input of what that child
			// hosts itself.
			for _, parent := range p.Tree.Brokers() {
				kids := p.Tree.Children[parent]
				for _, c := range kids {
					out := 0.0
					for _, b := range []string{parent, c} {
						for _, u := range p.Tree.Hosted[b] {
							out += u.Load.Bandwidth
						}
					}
					for _, o := range kids {
						if o != c {
							out += bitvector.EstimateLoad(allocation.MergeUnits(o, p.Tree.Hosted[o]...).Profile, pubs).Bandwidth
						}
					}
					if out < p.Tree.Specs[parent].OutputBandwidth {
						continue
					}
					for _, u := range p.Tree.Hosted[c] {
						for _, m := range u.Members {
							p.Subscribers[m.SubID] = parent
						}
					}
					p.Tree.Hosted[parent] = append(p.Tree.Hosted[parent], p.Tree.Hosted[c]...)
					delete(p.Tree.Hosted, c)
					return "capacity:", `"` + parent + `"`
				}
			}
			t.Fatal("no child's units overrun its parent")
			return "", ""
		}},
		{"a rate overrun", func(p *core.Plan) (string, string) {
			// The leaf's matching delay grows until it matches half the rate
			// its hosted profiles draw.
			c, _ := leaf(p)
			rate := bitvector.EstimateLoad(allocation.MergeUnits(c, p.Tree.Hosted[c]...).Profile, pubs).Rate
			spec := *p.Tree.Specs[c]
			spec.Delay = message.MatchingDelayFn{Base: 2 / rate}
			p.Tree.Specs[c] = &spec
			return "capacity:", `"` + c + `"`
		}},
	}
	for _, tc := range cases {
		p := plan()
		check, names := tc.plant(p)
		err := core.Verify(p, infos)
		if err == nil || !strings.Contains(err.Error(), check) || !strings.Contains(err.Error(), names) {
			t.Errorf("%s: Verify = %v, want an error naming %s and %s", tc.name, err, check, names)
		}
	}
}

// TestFirstFitRateEstimateOnPaper8k plans plan_paper8k's set-up (80
// brokers, 40 publishers of 200 subscriptions, seed 1, 200 profiling rounds)
// with FBF and holds, for the broker whose children carry the most units,
// what DESIGN.md §5 says of two input-rate estimates of what it receives:
// Verify's, EstimateLoad over the OR of its profiles, is within its MaxRate;
// the first-fit kernel's, load(a∪b) = load(a) + load(b) − IntersectLoad(a,
// b) summed unit by unit (the reference FuzzDenseFitsEquivalence holds the
// kernel to), exceeds MaxRate in child-ID order and not in reverse, so a
// replay of the kernel would refuse the plan in one order and accept it in
// the other.
func TestFirstFitRateEstimateOnPaper8k(t *testing.T) {
	if testing.Short() {
		t.Skip("plans an 8,000-subscription scenario")
	}
	o := workload.Defaults()
	o.Brokers, o.Publishers, o.SubsPerPublisher, o.Seed = 80, 40, 200, 1
	sc, err := workload.Build("plan_paper8k", o)
	if err != nil {
		t.Fatal(err)
	}
	_, infos, err := sim.Prepare(sc, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.ComputePlan(infos, core.Config{Algorithm: core.AlgFBF, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pubs := core.PublisherStats(infos)
	kernel := func(units []*allocation.Unit) float64 {
		agg, rate := bitvector.NewProfile(units[0].Profile.Capacity()), 0.0
		for _, u := range units {
			rate += bitvector.EstimateLoad(u.Profile, pubs).Rate - bitvector.IntersectLoad(agg, u.Profile, pubs).Rate
			agg.Or(u.Profile)
		}
		return rate
	}
	broker := ""
	for _, b := range p.Tree.Brokers() {
		if len(p.Tree.Children[b]) > len(p.Tree.Children[broker]) {
			broker = b
		}
	}
	if broker == "" {
		t.Fatal("the plan has no Phase-3 broker")
	}
	filter := core.SubtreeFilters(p.Tree)
	units := slices.Clone(p.Tree.Hosted[broker])
	for _, c := range p.Tree.Children[broker] {
		units = append(units, &allocation.Unit{Profile: filter[c]})
	}
	filters := len(p.Tree.Children[broker])
	for _, u := range p.Tree.Hosted[broker] {
		filters += len(u.Members)
	}
	or, limit := bitvector.EstimateLoad(filter[broker], pubs).Rate, p.Tree.Specs[broker].Delay.MaxRate(filters)
	forward := kernel(units)
	slices.Reverse(units)
	reverse := kernel(units)
	t.Logf("broker %s, %d units: input rate over the OR %.2f msg/s; first-fit sum %.2f msg/s in child-ID order, %.2f in reverse; MaxRate(%d) %.2f msg/s",
		broker, len(units), or, forward, reverse, filters, limit)
	if !(or <= limit && forward > limit && reverse <= limit) {
		t.Errorf("want the OR's estimate and the reverse sum within MaxRate and the child-ID-order sum over it")
	}
	if err := core.Verify(p, infos); err != nil {
		t.Error(err)
	}
}
