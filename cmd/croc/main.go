// Command croc runs the Coordinator for Reconfiguring the Overlay and
// Clients against a live broker overlay: it gathers broker and workload
// information through the BIR/BIA protocol, computes the three-phase
// reconfiguration plan, and prints it (human-readable or JSON for
// deployment tooling).
//
// Usage:
//
//	croc -broker 127.0.0.1:7001 -algorithm CRAM-IOS
//	croc -broker 127.0.0.1:7001 -algorithm BINPACKING -json > plan.json
//	croc -broker 127.0.0.1:7001 -gather-only          # dump broker infos
//
// Every reconfiguration prints a per-phase timeline (gather, allocate,
// overlay build, GRAPE); with -json the timeline goes to stderr so
// stdout stays machine-readable. -no-timeline suppresses it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/croc"
	"github.com/greenps/greenps/internal/grape"
	"github.com/greenps/greenps/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "croc:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		brokerFl   = flag.String("broker", "", "address of any broker in the overlay (required)")
		algorithm  = flag.String("algorithm", core.AlgCRAMIOS, "allocation algorithm")
		grapeMode  = flag.String("grape", "load", "GRAPE objective: load or delay")
		timeout    = flag.Duration("timeout", 30*time.Second, "BIA wait timeout")
		asJSON     = flag.Bool("json", false, "emit the plan as JSON")
		gatherOnly = flag.Bool("gather-only", false, "dump gathered broker information and exit")
		seed       = flag.Int64("seed", 1, "seed for randomized algorithm steps")
		noTimeline = flag.Bool("no-timeline", false, "suppress the per-phase reconfiguration timeline")
	)
	flag.Parse()
	if *brokerFl == "" {
		return fmt.Errorf("-broker is required")
	}
	if *gatherOnly {
		infos, err := croc.Gather(*brokerFl, *timeout)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(infos)
	}
	mode, err := grape.ParseMode(*grapeMode)
	if err != nil {
		return err
	}
	var tl *telemetry.Timeline
	if !*noTimeline {
		tl = telemetry.NewTimeline("reconfiguration", time.Now)
	}
	plan, err := croc.Reconfigure(*brokerFl, core.Config{
		Algorithm: *algorithm,
		GrapeMode: mode,
		Seed:      *seed,
	}, *timeout, tl)
	if err != nil {
		return err
	}
	if *asJSON {
		if err := croc.WriteJSON(os.Stdout, plan); err != nil {
			return err
		}
		if tl != nil {
			return tl.Render(os.Stderr)
		}
		return nil
	}
	if err := croc.Render(os.Stdout, plan); err != nil {
		return err
	}
	if tl != nil {
		return tl.Render(os.Stdout)
	}
	return nil
}
