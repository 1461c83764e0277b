// GRAPE priority sweep: the original GRAPE algorithm (the authors' prior
// work the ICDCS'11 pipeline invokes after Phase 3) exposes a 0-100
// priority knob between minimizing total broker load and minimizing
// delivery delay. This example fixes one Phase-2/Phase-3 overlay and
// sweeps the knob, measuring both objectives at each setting — the
// load/delay trade-off curve.
//
// Run with:
//
//	go run ./examples/grapepriority
package main

import (
	"fmt"
	"log"

	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/grape"
	"github.com/greenps/greenps/internal/sim"
	"github.com/greenps/greenps/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	o := workload.Defaults()
	o.Brokers = 32
	o.Publishers = 10
	o.SubsPerPublisher = 80
	o.BaseBandwidth = 36_000
	sc, err := workload.Build("grape-priority", o)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %d brokers, %d publishers, %d subscriptions\n\n",
		o.Brokers, o.Publishers, len(sc.Subscribers))

	// Phase 1 once. The sweep runs on the MANUAL tree — GRAPE's native
	// setting in the authors' prior work: a fixed overlay with scattered
	// subscribers, where only the publishers move. Every priority shares
	// the same overlay, so differences are purely publisher placement.
	_, infos, err := sim.Prepare(sc, 150, 0)
	if err != nil {
		return err
	}
	tree, err := sim.ManualTree(sc, infos, 1280)
	if err != nil {
		return err
	}
	plan := &core.Plan{Algorithm: "GRAPE", Tree: tree, Subscribers: tree.SubscriberPlacement()}
	fmt.Printf("fixed overlay: the MANUAL fan-out-2 tree over all %d brokers\n\n", len(sc.Brokers))

	stats := core.PublisherStats(infos)
	fmt.Printf("%-14s %14s %10s %12s\n", "load priority", "total msgs/s", "avg hops", "avg delay ms")
	for _, priority := range []int{0, 25, 50, 75, 100} {
		placement, err := grape.RelocateWithPriority(plan.Tree, stats, priority)
		if err != nil {
			return err
		}
		plan.Publishers = placement
		res, err := sim.RunWithPlan(sc, plan, sim.ExperimentConfig{
			Scenario:      sc,
			Approach:      "BINPACKING",
			ProfileRounds: 150,
			MeasureRounds: 75,
			Seed:          1,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-14d %14.1f %10.2f %12.1f\n",
			priority, res.TotalMsgRate, res.AvgHops, res.AvgDelayMs)
	}
	fmt.Println("\npriority 100 = the paper's configuration (pure load minimization);")
	fmt.Println("lower priorities accept equal-or-higher broker load in exchange for")
	fmt.Println("shorter rate-weighted delivery paths")
	return nil
}
