package core

import (
	"fmt"
	"slices"
	"sort"

	"github.com/greenps/greenps/internal/allocation"
	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/overlaybuild"
)

// Validate checks what a deployer reads off the plan, which needs no BIA:
// the tree validates, every hosted member is a subscription hosted once,
// Subscribers maps exactly those to their brokers, and every publisher
// target is a tree broker. Each error names its check and the broker,
// subscription or advertisement, the first failure in sorted-ID order.
func (p *Plan) Validate() error {
	if p.Tree == nil {
		return fmt.Errorf("core: plan: tree: the plan has none")
	}
	if err := p.Tree.Validate(); err != nil {
		return fmt.Errorf("core: plan: tree: %w", err)
	}
	hostedOn := make(map[string]string)
	for _, b := range p.Tree.Brokers() {
		for _, u := range p.Tree.Hosted[b] {
			for _, m := range u.Members {
				if prev, twice := hostedOn[m.SubID]; twice {
					return fmt.Errorf("core: plan: hosting: subscription %q is hosted on %q and on %q", m.SubID, prev, b)
				}
				hostedOn[m.SubID] = b
			}
		}
	}
	if sub, ok := firstMismatch(p.Subscribers, hostedOn); ok {
		return fmt.Errorf("core: plan: subscribers: subscription %q is mapped to %q but hosted on %q", sub, p.Subscribers[sub], hostedOn[sub])
	}
	for _, adv := range sortedKeys(p.Publishers) {
		if _, ok := p.Tree.Specs[p.Publishers[adv]]; !ok {
			return fmt.Errorf("core: plan: publishers: advertisement %q is placed on %q, which is not a tree broker", adv, p.Publishers[adv])
		}
	}
	return nil
}

// Verify is the one definition of a deployable plan (DESIGN.md §5): the
// plan validates, every subscription the BIA reports is hosted and nothing
// else is, every publisher it reports is placed, and every tree broker is
// within both capacity constraints as deployed. It replays no first-fit
// kernel, whose union estimate depends on the order its producer placed
// units in, which a plan does not record.
func Verify(p *Plan, infos []message.BrokerInfo) error {
	if err := p.Validate(); err != nil {
		return err
	}
	// reported maps each subscription the BIA reports to where p hosts it.
	reported := make(map[string]string)
	for i := range infos {
		for _, si := range infos[i].Subscriptions {
			if si.Sub != nil {
				reported[si.Sub.ID] = p.Subscribers[si.Sub.ID]
			}
		}
	}
	if sub, ok := firstMismatch(reported, p.Subscribers); ok {
		if on, hosted := p.Subscribers[sub]; hosted {
			return fmt.Errorf("core: plan: hosting: subscription %q is hosted on %q but not in the BIA", sub, on)
		}
		return fmt.Errorf("core: plan: hosting: subscription %q is not hosted", sub)
	}
	pubs := PublisherStats(infos)
	for _, adv := range sortedKeys(pubs) {
		if _, ok := p.Publishers[adv]; !ok {
			return fmt.Errorf("core: plan: publishers: advertisement %q is not placed", adv)
		}
	}

	t := p.Tree
	filter := subtreeFilters(t)
	for _, b := range t.Brokers() {
		spec := t.Specs[b]
		if spec == nil {
			return fmt.Errorf("core: plan: capacity: broker %q has no spec", b)
		}
		out, filters := 0.0, len(t.Children[b])
		for _, u := range t.Hosted[b] {
			out += u.Load.Bandwidth
			filters += len(u.Members)
		}
		for _, c := range t.Children[b] {
			out += bitvector.EstimateLoad(filter[c], pubs).Bandwidth
		}
		if !(out < spec.OutputBandwidth) {
			return fmt.Errorf("core: plan: capacity: broker %q sends %.1f B/s, not under its %.1f B/s", b, out, spec.OutputBandwidth)
		}
		rate, limit := bitvector.EstimateLoad(filter[b], pubs).Rate, spec.Delay.MaxRate(filters)
		if !(rate <= limit) {
			return fmt.Errorf("core: plan: capacity: broker %q takes %.2f msg/s in, over its %.2f msg/s at %d filters", b, rate, limit, filters)
		}
	}
	return nil
}

// subtreeFilters returns, per tree broker b, the OR of every profile at or
// below b: what b receives. An OR depends on the order it merges in, since
// a vector's window anchors on the first vector merged into it and drops
// the older IDs of later ones, so the order is the plan's own: b's hosted
// units as Hosted lists them, then its children's ORs as Children lists
// them (in ID order in a built tree).
func subtreeFilters(t *overlaybuild.Tree) map[string]*bitvector.Profile {
	filter := make(map[string]*bitvector.Profile, len(t.Specs))
	var or func(b string) *bitvector.Profile
	or = func(b string) *bitvector.Profile {
		parts := slices.Clone(t.Hosted[b])
		for _, c := range t.Children[b] {
			// An empty subtree adds nothing, and would set the OR's capacity.
			if cp := or(c); len(cp.Pubs()) > 0 {
				parts = append(parts, &allocation.Unit{Profile: cp})
			}
		}
		filter[b] = allocation.MergeUnits(b, parts...).Profile
		return filter[b]
	}
	or(t.Root)
	return filter
}

// firstMismatch returns the least key that a and b disagree on: one of them
// maps it and the other does not, or they map it to different values.
func firstMismatch[V comparable](a, b map[string]V) (string, bool) {
	keys := append(sortedKeys(a), sortedKeys(b)...)
	sort.Strings(keys)
	for _, k := range keys {
		av, inA := a[k]
		bv, inB := b[k]
		if inA != inB || av != bv {
			return k, true
		}
	}
	return "", false
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
