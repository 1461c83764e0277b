// Package croc implements the live Coordinator for Reconfiguring the
// Overlay and Clients (Section III): an external publish/subscribe client
// that connects to any broker in a running overlay, gathers broker and
// workload information via the BIR/BIA protocol, executes Phases 2 and 3
// plus GRAPE through package core, and emits the reconfiguration plan for
// the deployment tooling to apply (the paper re-instantiates every broker
// and reconnects clients, which is the deployer's job — cmd/panda here).
package croc

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/greenps/greenps/internal/client"
	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/telemetry"
)

// freshID mints a client or request identifier. A nanosecond timestamp
// alone collides when two coordinators start inside one clock tick (or
// when the platform clock is coarse), so a random suffix is appended;
// if the system's entropy source fails, the bare timestamp is kept.
func freshID(prefix string) string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%s-%d", prefix, time.Now().UnixNano())
	}
	return fmt.Sprintf("%s-%d-%s", prefix, time.Now().UnixNano(), hex.EncodeToString(b[:]))
}

// Gather connects to a broker, floods a Broker Information Request through
// the overlay, and returns the aggregated answers.
func Gather(brokerAddr string, timeout time.Duration) ([]message.BrokerInfo, error) {
	c, err := client.Connect(freshID("croc"), brokerAddr)
	if err != nil {
		return nil, fmt.Errorf("croc: connect: %w", err)
	}
	defer func() { _ = c.Close() }()
	reqID := freshID("bir")
	if err := c.SendBIR(reqID); err != nil {
		return nil, fmt.Errorf("croc: send BIR: %w", err)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case bia, ok := <-c.BIAs():
			if !ok {
				return nil, fmt.Errorf("croc: connection closed awaiting BIA: %w", c.Err())
			}
			if bia.RequestID != reqID {
				continue // stale answer from an earlier coordinator
			}
			return bia.Infos, nil
		case <-timer.C:
			return nil, fmt.Errorf("croc: timed out after %v awaiting BIA", timeout)
		}
	}
}

// Reconfigure gathers information from a live overlay and computes the
// reconfiguration plan. On the timeline, the BIR/BIA gather becomes one
// span and the planning stages (from Plan.PhaseTimes) become one span
// each; a nil timeline records nothing.
func Reconfigure(brokerAddr string, cfg core.Config, timeout time.Duration, tl *telemetry.Timeline) (*core.Plan, error) {
	done := tl.StartSpan("phase 1: gather broker info (BIR/BIA)")
	infos, err := Gather(brokerAddr, timeout)
	done()
	if err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		// The core package takes the clock as an input so planning stays a
		// pure function; the live entry point wants real timings.
		cfg.Clock = time.Now
	}
	return Plan(infos, cfg, tl)
}

// Plan computes the reconfiguration plan from gathered broker
// information and lays the planning stages onto the timeline. Telemetry
// stays strictly outside the computation: the plan is produced by
// core.ComputePlan alone, and the spans are derived afterwards from the
// plan's own PhaseTimes (zero-length spans when cfg.Clock is nil).
func Plan(infos []message.BrokerInfo, cfg core.Config, tl *telemetry.Timeline) (*core.Plan, error) {
	start := tl.Now()
	plan, err := core.ComputePlan(infos, cfg)
	if err != nil {
		return nil, err
	}
	pt := plan.PhaseTimes
	at := start
	for _, s := range []struct {
		name string
		d    time.Duration
	}{
		{"phase 2: build allocation inputs", pt.Inputs},
		{"phase 2: allocate (" + cfg.Algorithm + ")", pt.Allocate},
		{"phase 3: build overlay", pt.Build},
		{"phase 3: GRAPE publisher placement", pt.Grape},
	} {
		tl.Add(s.name, at, s.d)
		at = at.Add(s.d)
	}
	return plan, nil
}

// PlanDoc is the JSON form of a plan, consumed by deployment tooling.
type PlanDoc struct {
	Algorithm string `json:"algorithm"`
	Root      string `json:"root"`
	// Brokers lists allocated brokers with their connect URLs.
	Brokers map[string]string `json:"brokers"`
	// Edges lists parent -> children links.
	Edges map[string][]string `json:"edges"`
	// Subscribers maps subscription ID to broker ID.
	Subscribers map[string]string `json:"subscribers"`
	// Publishers maps advertisement ID to broker ID.
	Publishers map[string]string `json:"publishers"`
	// ComputeMillis is the planning time.
	ComputeMillis int64 `json:"compute_millis"`
}

// ToDoc converts a plan to its JSON document form.
func ToDoc(p *core.Plan) *PlanDoc {
	doc := &PlanDoc{
		Algorithm:     p.Algorithm,
		Root:          p.Tree.Root,
		Brokers:       make(map[string]string),
		Edges:         p.Tree.Children,
		Subscribers:   p.Subscribers,
		Publishers:    map[string]string(p.Publishers),
		ComputeMillis: p.ComputeTime().Milliseconds(),
	}
	for _, id := range p.Tree.Brokers() {
		doc.Brokers[id] = p.Tree.Specs[id].URL
	}
	return doc
}

// WriteJSON writes the plan document.
func WriteJSON(w io.Writer, p *core.Plan) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ToDoc(p)); err != nil {
		return fmt.Errorf("croc: encode plan: %w", err)
	}
	return nil
}

// Render writes a human-readable plan summary.
func Render(w io.Writer, p *core.Plan) error {
	fmt.Fprintf(w, "algorithm: %s\n", p.Algorithm)
	fmt.Fprintf(w, "allocated brokers: %d (root %s)\n", p.Tree.NumBrokers(), p.Tree.Root)
	fmt.Fprintf(w, "compute time: %v\n", p.ComputeTime().Round(time.Millisecond))
	if p.CRAMStats != nil {
		st := p.CRAMStats
		fmt.Fprintf(w, "CRAM: %d subs -> %d GIFs -> %d units; %d closeness computations, %d pack attempts (%d certified, %d placements replayed)\n",
			st.InitialUnits, st.InitialGIFs, st.FinalUnits, st.ClosenessComputations, st.PackAttempts, st.ProbesCertified, st.PlacementsReplayed)
	}
	bs := p.BuildStats
	fmt.Fprintf(w, "overlay: %d layers; %d forwarders eliminated, %d takeovers, %d best-fit swaps\n",
		bs.Layers, bs.ForwardersEliminated, bs.Takeovers, bs.BestFitSwaps)
	var ids []string
	for id := range p.Tree.Specs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		subs := 0
		for _, u := range p.Tree.Hosted[id] {
			subs += len(u.Members)
		}
		fmt.Fprintf(w, "  %s children=%v subscriptions=%d\n", id, p.Tree.Children[id], subs)
	}
	return nil
}
