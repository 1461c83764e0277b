// Command greenbench regenerates the paper's evaluation tables and figures
// (experiments E1..E13 and T1 from DESIGN.md) using the virtual-time
// simulation harness.
//
// Usage:
//
//	greenbench -exp all                # every experiment at paper scale
//	greenbench -exp e1,e2 -quick      # selected experiments, reduced scale
//	greenbench -exp e9 -full          # include the 1,000-broker run
//	greenbench -exp e13 -full         # include the 1M-subscription run
//	greenbench -list                  # list experiment IDs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/greenps/greenps/internal/experiments"
	"github.com/greenps/greenps/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "greenbench:", err)
		os.Exit(1)
	}
}

var descriptions = []struct{ id, desc string }{
	{"e1", "avg broker message rate vs subscriptions, homogeneous"},
	{"e2", "allocated brokers vs subscriptions, homogeneous"},
	{"e3", "avg hop count vs subscriptions, homogeneous"},
	{"e4", "avg delivery delay vs subscriptions, homogeneous"},
	{"e5", "avg broker message rate vs Ns, heterogeneous"},
	{"e6", "allocated brokers vs Ns, heterogeneous"},
	{"e7", "reconfiguration computation time vs subscriptions"},
	{"e8", "CRAM optimization ablation"},
	{"e9", "large-scale (SciNet substitution)"},
	{"e10", "Phase-3 overlay optimization ablation"},
	{"e11", "publisher relocation alone vs full pipeline"},
	{"e12", "poset insertion scalability"},
	{"e13", "CRAM allocation at scale (sharded search, spill-to-disk)"},
	{"t1", "summary: reductions vs MANUAL"},
}

func run() error {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment IDs (e1..e13, t1) or 'all'")
		quick    = flag.Bool("quick", false, "reduced scale (~20x faster, same shapes)")
		full     = flag.Bool("full", false, "include the long runs: 1,000-broker E9, 1M-subscription E13")
		seed     = flag.Int64("seed", 1, "random seed")
		par      = flag.Int("parallelism", 0, "worker count of CRAM's seed phase (0 = all cores); results are identical at any value")
		verbose  = flag.Bool("v", true, "print progress to stderr")
		listOnly = flag.Bool("list", false, "list experiment IDs and exit")
		jsonOut  = flag.String("json", "", "also write the emitted tables as JSON to this file (baseline recording)")
	)
	flag.Parse()

	if *listOnly {
		for _, d := range descriptions {
			fmt.Printf("%-4s %s\n", d.id, d.desc)
		}
		return nil
	}

	cfg := experiments.Defaults()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed
	cfg.Parallelism = *par
	if *verbose {
		cfg.Log = os.Stderr
	}

	want := map[string]bool{}
	if *expFlag == "all" {
		for _, d := range descriptions {
			want[d.id] = true
		}
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToLower(strings.TrimSpace(id))] = true
		}
	}

	rendered := 0
	var collected []*metrics.Series
	emit := func(s *metrics.Series) error {
		rendered++
		collected = append(collected, s)
		return s.Render(os.Stdout)
	}

	needHomo := want["e1"] || want["e2"] || want["e3"] || want["e4"] || want["e7"] || want["t1"]
	if needHomo {
		sw, err := experiments.RunHomogeneous(cfg)
		if err != nil {
			return err
		}
		for _, e := range []struct{ id, metric string }{
			{"e1", "msgrate"}, {"e2", "brokers"}, {"e3", "hops"}, {"e4", "delay"}, {"e7", "compute"},
		} {
			if !want[e.id] {
				continue
			}
			s, err := sw.Table(strings.ToUpper(e.id), e.metric)
			if err != nil {
				return err
			}
			if err := emit(s); err != nil {
				return err
			}
		}
		if want["t1"] {
			s, err := sw.Summary("T1")
			if err != nil {
				return err
			}
			if err := emit(s); err != nil {
				return err
			}
		}
	}
	if want["e5"] || want["e6"] {
		sw, err := experiments.RunHeterogeneous(cfg)
		if err != nil {
			return err
		}
		if want["e5"] {
			s, err := sw.Table("E5", "msgrate")
			if err != nil {
				return err
			}
			if err := emit(s); err != nil {
				return err
			}
		}
		if want["e6"] {
			s, err := sw.Table("E6", "brokers")
			if err != nil {
				return err
			}
			if err := emit(s); err != nil {
				return err
			}
		}
	}
	runners := []struct {
		id string
		fn func() (*metrics.Series, error)
	}{
		{"e8", func() (*metrics.Series, error) { return experiments.CRAMAblation(cfg) }},
		{"e9", func() (*metrics.Series, error) { return experiments.LargeScale(cfg, *full) }},
		{"e10", func() (*metrics.Series, error) { return experiments.OverlayAblation(cfg) }},
		{"e11", func() (*metrics.Series, error) { return experiments.GrapeOnly(cfg) }},
		{"e12", func() (*metrics.Series, error) { return experiments.PosetScaling(cfg) }},
		{"e13", func() (*metrics.Series, error) {
			s, _, err := experiments.ScaleSweep(cfg, *full)
			return s, err
		}},
	}
	for _, r := range runners {
		if !want[r.id] {
			continue
		}
		s, err := r.fn()
		if err != nil {
			return err
		}
		if err := emit(s); err != nil {
			return err
		}
	}

	if rendered == 0 {
		return fmt.Errorf("no experiments selected (use -list)")
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(collected, "", "  ")
		if err != nil {
			return fmt.Errorf("marshal series: %w", err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *jsonOut, err)
		}
	}
	return nil
}
