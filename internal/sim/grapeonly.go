package sim

import (
	"fmt"
	"sort"

	"github.com/greenps/greenps/internal/allocation"
	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/grape"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/overlaybuild"
	"github.com/greenps/greenps/internal/workload"
)

// runGrapeOnly reproduces the single-variable prior approach (publisher
// relocation alone, Section II-B): the MANUAL topology and every subscriber
// stay exactly where they are; only the publishers are relocated by GRAPE
// using the profiles gathered in Phase 1.
func runGrapeOnly(sc *workload.Scenario, c ExperimentConfig) (*Result, error) {
	_, infos, err := Prepare(sc, c.ProfileRounds, profileCapacity)
	if err != nil {
		return nil, err
	}
	tree, err := ManualTree(sc, infos, profileCapacity)
	if err != nil {
		return nil, err
	}
	placement, err := grape.Relocate(tree, core.PublisherStats(infos), grape.ModeLoad)
	if err != nil {
		return nil, err
	}

	// Redeploy: identical brokers, links, and subscribers; publishers at
	// their GRAPE-chosen brokers.
	net, err := deployManual(sc, profileCapacity, placement)
	if err != nil {
		return nil, err
	}
	return measure(net, sc, c, net.Brokers(), c.ProfileRounds, 0)
}

// ManualTree converts the scenario's MANUAL fan-out-2 topology plus the
// gathered subscription profiles into an overlaybuild.Tree so GRAPE can
// score candidate attachment points on it (used by the GRAPE-only path
// and by standalone publisher-relocation studies).
func ManualTree(sc *workload.Scenario, infos []message.BrokerInfo, capacity int) (*overlaybuild.Tree, error) {
	if len(sc.Brokers) == 0 {
		return nil, fmt.Errorf("sim: scenario has no brokers")
	}
	t := &overlaybuild.Tree{
		Root:     sc.Brokers[0].ID,
		Children: make(map[string][]string),
		Hosted:   make(map[string][]*allocation.Unit),
		Specs:    make(map[string]*allocation.BrokerSpec),
	}
	for _, b := range sc.Brokers {
		t.Specs[b.ID] = &allocation.BrokerSpec{
			ID:              b.ID,
			URL:             "sim://" + b.ID,
			Delay:           b.Delay,
			OutputBandwidth: b.OutputBandwidth,
		}
	}
	for _, e := range sc.Tree {
		t.Children[e[0]] = append(t.Children[e[0]], e[1])
	}
	for _, kids := range t.Children {
		sort.Strings(kids)
	}
	pubs := core.PublisherStats(infos)
	for i := range infos {
		bi := &infos[i]
		for _, si := range bi.Subscriptions {
			t.Hosted[bi.ID] = append(t.Hosted[bi.ID], core.SubscriptionUnit(si, capacity, pubs))
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("sim: manual tree: %w", err)
	}
	return t, nil
}
