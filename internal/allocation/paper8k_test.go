package allocation_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/croc"
	"github.com/greenps/greenps/internal/sim"
	"github.com/greenps/greenps/internal/workload"
)

// TestCRAMPaper8kPlan plans the benchmark's plan_paper8k scenario at seed 1
// as its pass does: 80 brokers, 40 publishers of 200 subscriptions, 200
// profiling rounds, CRAM-IOS on 1,280-bit profiles and one worker. It pins
// the plan document's digest, which the benchmark prints, the closeness
// evaluations the loop's searches run (DESIGN.md §7) and the probe count,
// the benchmark's traced pack_attempts.
func TestCRAMPaper8kPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles an 8,000-subscription scenario")
	}
	o := workload.Defaults()
	o.Brokers, o.Publishers, o.SubsPerPublisher, o.Seed = 80, 40, 200, 1
	sc, err := workload.Build("plan_paper8k", o)
	if err != nil {
		t.Fatal(err)
	}
	_, infos, err := sim.Prepare(sc, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.ComputePlan(infos, core.Config{Algorithm: core.AlgCRAMIOS, Parallelism: 1, Seed: 1, ProfileCapacity: 1280})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.CRAMStats
	t.Logf("%+v", *st)
	doc := croc.ToDoc(plan)
	doc.ComputeMillis = 0
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	const want = "63b3f8e4f040929af7f06de59419be60a6d0ee99156a3abe4bd7706013bf735b"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Errorf("plan moved: digest %s, want %s", got, want)
	}
	if st.ClosenessComputations != 518_421 {
		t.Errorf("%d closeness computations, want 518,421", st.ClosenessComputations)
	}
	if st.PackAttempts != 3_609 {
		t.Errorf("%d pack attempts, want 3,609", st.PackAttempts)
	}
}
