package sim

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/prepare_digests.txt with the current digests")

// TestPrepareInfosGolden runs Prepare on BenchmarkPrepare's scenario (20
// brokers, 10 publishers, 40 subscriptions per publisher, 200 rounds) at
// seeds 1 and 7 and compares the sha256 of json.Marshal of the returned
// BrokerInfos, and the publications its profiling rounds deliver, with
// testdata/prepare_digests.txt. Every plan starts from these infos, so a
// change to the routing plane that moves one shows up here as a diff; a
// change that means to re-runs the test with -update and says so.
func TestPrepareInfosGolden(t *testing.T) {
	var got strings.Builder
	for _, seed := range []int64{1, 7} {
		o := workload.Defaults()
		o.Brokers, o.Publishers, o.SubsPerPublisher, o.Seed = 20, 10, 40, seed
		sc, err := workload.Build("prepare", o)
		if err != nil {
			t.Fatal(err)
		}
		_, infos, err := Prepare(sc, 200, 0)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := json.Marshal(infos)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "seed %d deliveries %d infos %x\n", seed, profilingDeliveries(t, sc, 200), sha256.Sum256(doc))
	}
	path := filepath.Join("testdata", "prepare_digests.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("set-up digests moved:\n got\n%s\nwant\n%s", got.String(), want)
	}
}

// profilingDeliveries counts the publications Prepare's profiling rounds
// deliver, by running Prepare's own replay on a fresh deployment of sc.
func profilingDeliveries(t *testing.T, sc *workload.Scenario, rounds int) int {
	t.Helper()
	net, err := deployManual(sc, profileCapacity, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	net.OnDelivery = func(Delivery) { n++ }
	if err := replayProfiling(net, sc, rounds); err != nil {
		t.Fatal(err)
	}
	return n
}
