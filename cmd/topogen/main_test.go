package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/topology"
	"github.com/greenps/greenps/internal/workload"
)

// TestShippedTopologiesParse parses every topology file the repository
// ships, so a change to the format cannot leave one behind.
func TestShippedTopologiesParse(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "topologies", "*.topo"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no shipped topology files found")
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := topology.Parse(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if len(topo.Brokers) == 0 {
			t.Errorf("%s declares no broker", name)
		}
	}
}

// TestOutputParses renders the default scenario and parses it back: every
// broker, link, publisher and subscriber survives the round trip.
func TestOutputParses(t *testing.T) {
	sc, err := workload.Build("topogen", workload.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	writeTopology(&out, sc, "127.0.0.1", 7001)
	topo, err := topology.Parse(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Brokers) != len(sc.Brokers) || len(topo.Links) != len(sc.Tree) ||
		len(topo.Publishers) != len(sc.Publishers) || len(topo.Subscribers) != len(sc.Subscribers) {
		t.Fatalf("parsed %d brokers, %d links, %d publishers, %d subscribers; the scenario has %d, %d, %d, %d",
			len(topo.Brokers), len(topo.Links), len(topo.Publishers), len(topo.Subscribers),
			len(sc.Brokers), len(sc.Tree), len(sc.Publishers), len(sc.Subscribers))
	}
	for i, p := range topo.Publishers {
		want := sc.Publishers[i]
		if p.ID != want.ClientID || p.Broker != want.HomeBroker || p.AdvID != want.AdvID || len(p.Predicates) == 0 {
			t.Errorf("publisher %d = %+v, want %s at %s advertising %s", i, p, want.ClientID, want.HomeBroker, want.AdvID)
		}
	}
}
