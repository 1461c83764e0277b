package sim

import (
	"fmt"
	"sort"

	"github.com/greenps/greenps/internal/allocation"
	"github.com/greenps/greenps/internal/bitvector"
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
	net, err := deployManual(sc, c.ProfileCapacity)
	if err != nil {
		return nil, err
	}
	if err = profileTraffic(net, sc, c.ProfileRounds); err != nil {
		return nil, err
	}
	infos, err := GatherInfos(net, sc.Brokers[0].ID)
	if err != nil {
		return nil, err
	}
	tree, err := ManualTree(sc, infos, c.ProfileCapacity)
	if err != nil {
		return nil, err
	}
	placement, err := grape.Relocate(tree, publisherStats(infos), grape.ModeLoad)
	if err != nil {
		return nil, err
	}

	// Redeploy: identical brokers, links, and subscribers; publishers at
	// their GRAPE-chosen brokers.
	net2, err := deployManualWithPublishers(sc, c.ProfileCapacity, placement)
	if err != nil {
		return nil, err
	}
	return measure(net2, sc, c, net2.Brokers(), c.ProfileRounds, nil, nil, 0)
}

// publisherStats merges the publisher statistics from all broker infos.
func publisherStats(infos []message.BrokerInfo) map[string]*bitvector.PublisherStats {
	out := make(map[string]*bitvector.PublisherStats)
	for i := range infos {
		for _, pi := range infos[i].Publishers {
			out[pi.Stats.AdvID] = pi.Stats
		}
	}
	return out
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
		Parent:   make(map[string]string),
		Hosted:   make(map[string][]*allocation.Unit),
		Profiles: make(map[string]*bitvector.Profile),
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
		t.Parent[e[1]] = e[0]
	}
	for _, kids := range t.Children {
		sort.Strings(kids)
	}
	pubs := publisherStats(infos)
	for i := range infos {
		bi := &infos[i]
		for _, si := range bi.Subscriptions {
			prof := si.Profile
			if prof == nil {
				prof = bitvector.NewProfile(capacity)
			}
			load := bitvector.EstimateLoad(prof, pubs)
			t.Hosted[bi.ID] = append(t.Hosted[bi.ID],
				allocation.NewSubscriptionUnit("u-"+si.Sub.ID, si.Sub, prof, load))
		}
		t.Profiles[bi.ID] = bitvector.Merged(capacity)
		for _, u := range t.Hosted[bi.ID] {
			t.Profiles[bi.ID].Or(u.Profile)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("sim: manual tree: %w", err)
	}
	return t, nil
}

// deployManualWithPublishers deploys the MANUAL topology but places each
// publisher at the given broker.
func deployManualWithPublishers(sc *workload.Scenario, capacity int, placement grape.Placement) (*Network, error) {
	net := NewNetwork()
	net.TracePaths = false
	for _, b := range sc.Brokers {
		if _, err := net.AddBroker(newBrokerCfg(b, capacity)); err != nil {
			return nil, err
		}
	}
	for _, e := range sc.Tree {
		if err := net.ConnectBrokers(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	place := func(p workload.PublisherDef) string {
		if b, ok := placement[p.AdvID]; ok {
			return b
		}
		return p.HomeBroker
	}
	placeSub := func(s workload.SubscriberDef) string { return s.HomeBroker }
	if err := attachClients(net, sc, place, placeSub); err != nil {
		return nil, err
	}
	return net, nil
}
