// Command panda is the deployment tool (after the paper's PADRES Automated
// Node Deployer and Administrator): it reads a topology file, starts every
// declared broker as a live TCP node, establishes the overlay links,
// attaches the declared publishers and subscribers, and keeps the
// deployment running until interrupted. Brokers and links are verified up
// before clients are attached, as in the paper.
//
// With -reconfigure, panda also closes the paper's loop: after the
// profiling window it gathers broker information via BIR/BIA, plans with
// the chosen algorithm, and applies the plan live — re-instantiating the
// allocated brokers from a clean state and reconnecting every client.
//
// Usage:
//
//	panda -file cluster.topo
//	panda -file cluster.topo -check                      # parse + validate only
//	panda -file cluster.topo -reconfigure CRAM-IOS -after 60s
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/croc"
	"github.com/greenps/greenps/internal/deploy"
	"github.com/greenps/greenps/internal/telemetry"
	"github.com/greenps/greenps/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "panda:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		file  = flag.String("file", "", "topology file (required)")
		check = flag.Bool("check", false, "parse and validate only")
		recfg = flag.String("reconfigure", "", "reconfigure with this algorithm after the profiling window")
		after = flag.Duration("after", 30*time.Second, "profiling window before -reconfigure fires")
	)
	flag.Parse()
	if *file == "" {
		return fmt.Errorf("-file is required")
	}
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	topo, err := topology.Parse(f)
	_ = f.Close()
	if err != nil {
		return err
	}
	fmt.Printf("parsed %d brokers, %d links, %d publishers, %d subscribers\n",
		len(topo.Brokers), len(topo.Links), len(topo.Publishers), len(topo.Subscribers))
	if *check {
		return nil
	}

	d := deploy.New()
	defer d.Close()
	if err := d.FromTopology(topo); err != nil {
		return err
	}
	for _, id := range d.RunningBrokers() {
		addr, _ := d.BrokerAddr(id)
		fmt.Printf("broker %s up on %s\n", id, addr)
	}
	fmt.Println("deployment up; ctrl-c to tear down")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *recfg != "" {
		fmt.Printf("reconfiguring with %s in %v...\n", *recfg, *after)
		select {
		case <-time.After(*after):
		case <-sig:
			return nil
		}
		entry, err := d.BrokerAddr(d.RunningBrokers()[0])
		if err != nil {
			return err
		}
		tl := telemetry.NewTimeline("reconfiguration", time.Now)
		plan, err := croc.Reconfigure(entry, core.Config{Algorithm: *recfg}, time.Minute, tl)
		if err != nil {
			return fmt.Errorf("reconfigure: %w", err)
		}
		if err := croc.Render(os.Stdout, plan); err != nil {
			return err
		}
		if err := d.Apply(plan, tl); err != nil {
			return fmt.Errorf("apply: %w", err)
		}
		fmt.Printf("applied: %d broker(s) now running\n", len(d.RunningBrokers()))
		if err := tl.Render(os.Stdout); err != nil {
			return err
		}
	}

	<-sig
	return nil
}
