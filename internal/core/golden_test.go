package core_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/croc"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/sim"
	"github.com/greenps/greenps/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/plan_digests.txt with the current digests")

// goldenInfos profiles the small scenario TestPlanDigestsGolden pins: 32
// brokers of 8,000 B/s, 10 publishers, 600 subscriptions.
func goldenInfos(t *testing.T) []message.BrokerInfo {
	t.Helper()
	o := workload.Defaults()
	o.Brokers, o.Publishers, o.SubsPerPublisher, o.BaseBandwidth = 32, 10, 60, 8_000
	sc, err := workload.Build("golden", o)
	if err != nil {
		t.Fatal(err)
	}
	_, infos, err := sim.Prepare(sc, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	return infos
}

// refusable reports whether Verify's err is one a correct planner may
// earn: PAIRWISE-K/N place clusters with no capacity test (Section VI), so
// their plans may overload a broker, the check Verify runs last.
func refusable(alg string, err error) bool {
	return (alg == core.AlgPairwiseK || alg == core.AlgPairwiseN) && strings.Contains(err.Error(), "capacity:")
}

// TestPlanDigestsGolden plans one small profiled scenario with every
// algorithm core.Algorithms lists and compares each plan's digest — the
// sha256 of the Phase-2 assignment's fingerprint and the plan document's
// JSON — with testdata/plan_digests.txt. Clock is nil, so the document's
// compute_millis is 0 and the digest is a function of the plan alone. A
// change that moves any algorithm's plan shows up here as a diff; one that
// means to re-runs the test with -update and says so. Every plan verifies
// but PAIRWISE-K's and PAIRWISE-N's, which overload a broker here.
func TestPlanDigestsGolden(t *testing.T) {
	infos := goldenInfos(t)
	var got strings.Builder
	for _, alg := range core.Algorithms() {
		plan, err := core.ComputePlan(infos, core.Config{Algorithm: alg, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		err = core.Verify(plan, infos)
		if pairwise := alg == core.AlgPairwiseK || alg == core.AlgPairwiseN; pairwise != (err != nil) || (err != nil && !refusable(alg, err)) {
			t.Errorf("%s: Verify = %v; want a capacity refusal exactly for PAIRWISE", alg, err)
		}
		doc, err := json.Marshal(croc.ToDoc(plan))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(plan.Assignment.Fingerprint() + "\n" + string(doc)))
		fmt.Fprintf(&got, "%s %d %x\n", alg, plan.NumBrokers(), sum)
	}
	path := filepath.Join("testdata", "plan_digests.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("plan digests moved (algorithm, brokers, digest):\n got\n%s\nwant\n%s", got.String(), want)
	}
}
