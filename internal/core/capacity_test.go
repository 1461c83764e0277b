package core_test

import (
	"testing"

	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/sim"
	"github.com/greenps/greenps/internal/workload"
)

// TestComputePlanAtBrokerCapacity: brokers that profile at 640 bits, as
// psbroker -profile-bits 640 does, are planned by every algorithm under a
// zero Config — the plan takes its capacity from the BIA — and each plan
// verifies, but for a PAIRWISE plan's overloaded broker. The scenario needs more than one broker, so Phase 3 ORs
// brokers' units into their filters.
func TestComputePlanAtBrokerCapacity(t *testing.T) {
	const capacity = 640
	o := workload.Defaults()
	o.Brokers, o.Publishers, o.SubsPerPublisher, o.BaseBandwidth = 16, 6, 30, 8_000
	sc, err := workload.Build("capacity", o)
	if err != nil {
		t.Fatal(err)
	}
	_, infos, err := sim.Prepare(sc, 40, capacity)
	if err != nil {
		t.Fatal(err)
	}
	profiled := 0
	for _, bi := range infos {
		for _, si := range bi.Subscriptions {
			if si.Profile != nil {
				profiled++
				if got := si.Profile.Snapshot().Cap; got != capacity {
					t.Fatalf("subscription %s profiled at %d bits, want %d", si.Sub.ID, got, capacity)
				}
			}
		}
	}
	if profiled == 0 {
		t.Fatal("no subscription carries a profile")
	}
	for _, alg := range core.Algorithms() {
		plan, err := core.ComputePlan(infos, core.Config{Algorithm: alg})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if err := core.Verify(plan, infos); err != nil && !refusable(alg, err) {
			t.Fatalf("%s: %v", alg, err)
		}
		if n := plan.Assignment.NumAllocated(); n < 2 {
			t.Fatalf("%s allocates %d broker; the scenario must need more than one", alg, n)
		}
	}
}
