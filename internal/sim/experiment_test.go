package sim

import (
	"math"
	"testing"

	"github.com/greenps/greenps/internal/workload"
)

// smallOpts is a fast 16-broker scenario exercising every code path.
func smallOpts() workload.Options {
	o := workload.Defaults()
	o.Brokers = 16
	o.Publishers = 6
	o.SubsPerPublisher = 30
	o.BaseBandwidth = 60_000
	return o
}

func smallConfig(sc *workload.Scenario, approach string) ExperimentConfig {
	return ExperimentConfig{
		Scenario:      sc,
		Approach:      approach,
		ProfileRounds: 80,
		MeasureRounds: 40,
		Seed:          1,
	}
}

func TestRunAllApproaches(t *testing.T) {
	sc, err := workload.Build("small", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[string]*Result)
	for _, ap := range append(Approaches(), ApproachGrapeOnly) {
		res, err := Run(smallConfig(sc, ap))
		if err != nil {
			t.Fatalf("%s: %v", ap, err)
		}
		results[ap] = res
		if res.AllocatedBrokers < 1 || res.AllocatedBrokers > len(sc.Brokers) {
			t.Errorf("%s: allocated %d brokers", ap, res.AllocatedBrokers)
		}
		if res.PoolBrokers != len(sc.Brokers) {
			t.Errorf("%s: pool = %d, want %d", ap, res.PoolBrokers, len(sc.Brokers))
		}
		if res.Deliveries == 0 {
			t.Errorf("%s: no deliveries", ap)
		}
		if res.AvgUtilization < 0 || res.AvgUtilization > 1 {
			t.Errorf("%s: utilization %v out of range", ap, res.AvgUtilization)
		}
		// Metric consistency.
		var total float64
		for _, b := range res.Brokers {
			total += b.MsgRate
		}
		if math.Abs(total-res.TotalMsgRate) > 1e-6 {
			t.Errorf("%s: broker rates sum %v != total %v", ap, total, res.TotalMsgRate)
		}
		if math.Abs(res.AvgRatePerPoolBroker-res.TotalMsgRate/float64(res.PoolBrokers)) > 1e-9 {
			t.Errorf("%s: pool-normalized rate inconsistent", ap)
		}
	}
	// Every approach delivers the same publications to the same
	// subscriptions: delivery counts must agree exactly (routing is
	// loss-free and false-positive-free in all topologies).
	want := results[ApproachManual].Deliveries
	for ap, res := range results {
		if res.Deliveries != want {
			t.Errorf("%s delivered %d, MANUAL %d — must be identical", ap, res.Deliveries, want)
		}
	}
	// Shape: baselines use the whole pool; the proposed algorithms use
	// (far) fewer brokers and lower the total message rate.
	for _, ap := range []string{ApproachManual, ApproachAutomatic} {
		if results[ap].AllocatedBrokers != len(sc.Brokers) {
			t.Errorf("%s should use all brokers", ap)
		}
	}
	for _, ap := range []string{"FBF", "BINPACKING", "CRAM-IOS", "CRAM-IOU", "CRAM-INTERSECT", "CRAM-XOR"} {
		r := results[ap]
		if r.AllocatedBrokers >= len(sc.Brokers) {
			t.Errorf("%s allocated the whole pool (%d)", ap, r.AllocatedBrokers)
		}
		if r.TotalMsgRate >= results[ApproachManual].TotalMsgRate {
			t.Errorf("%s total rate %v not below MANUAL %v", ap, r.TotalMsgRate, results[ApproachManual].TotalMsgRate)
		}
		if r.AvgHops >= results[ApproachManual].AvgHops {
			t.Errorf("%s hops %v not below MANUAL %v", ap, r.AvgHops, results[ApproachManual].AvgHops)
		}
		if r.ComputeTime <= 0 {
			t.Errorf("%s compute time missing", ap)
		}
	}
	if results["CRAM-IOS"].AllocatedBrokers > results["BINPACKING"].AllocatedBrokers {
		t.Errorf("CRAM-IOS brokers %d > BINPACKING %d", results["CRAM-IOS"].AllocatedBrokers,
			results["BINPACKING"].AllocatedBrokers)
	}
}

// TestGrapeOnlyCannotReduceSaturatedWorkload reproduces the Section II-B
// argument (experiment E11): with at least one matching subscriber on
// every broker, relocating only publishers cannot reduce the system
// message rate, while the full three-phase approach collapses it.
func TestGrapeOnlyCannotReduceSaturatedWorkload(t *testing.T) {
	o := smallOpts()
	o.SubsPerPublisher = 32 // >= broker count, to cover every broker
	sc, err := workload.EveryBrokerSubscribed(o)
	if err != nil {
		t.Fatal(err)
	}
	manual, err := Run(smallConfig(sc, ApproachManual))
	if err != nil {
		t.Fatal(err)
	}
	grapeOnly, err := Run(smallConfig(sc, ApproachGrapeOnly))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(smallConfig(sc, "CRAM-IOS"))
	if err != nil {
		t.Fatal(err)
	}
	// GRAPE alone: every broker still receives and forwards the stream —
	// within 10% of MANUAL.
	if grapeOnly.TotalMsgRate < manual.TotalMsgRate*0.9 {
		t.Errorf("GRAPE-ONLY rate %v unexpectedly below MANUAL %v",
			grapeOnly.TotalMsgRate, manual.TotalMsgRate)
	}
	// Full pipeline: large reduction.
	if full.TotalMsgRate > manual.TotalMsgRate*0.7 {
		t.Errorf("full pipeline rate %v not well below MANUAL %v",
			full.TotalMsgRate, manual.TotalMsgRate)
	}
	if full.AllocatedBrokers >= grapeOnly.AllocatedBrokers {
		t.Errorf("full pipeline brokers %d not below GRAPE-ONLY %d",
			full.AllocatedBrokers, grapeOnly.AllocatedBrokers)
	}
}

func TestGatherInfosCompleteness(t *testing.T) {
	sc, err := workload.Build("small", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	net, err := deployManual(sc, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := publishRounds(net, sc, 0, 50, nil); err != nil {
		t.Fatal(err)
	}
	infos, err := GatherInfos(net, sc.Brokers[3].ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(sc.Brokers) {
		t.Fatalf("gathered %d infos, want %d", len(infos), len(sc.Brokers))
	}
	subs, pubs := 0, 0
	for _, bi := range infos {
		subs += len(bi.Subscriptions)
		pubs += len(bi.Publishers)
	}
	if subs != len(sc.Subscribers) {
		t.Errorf("gathered %d subscriptions, want %d", subs, len(sc.Subscribers))
	}
	if pubs != len(sc.Publishers) {
		t.Errorf("gathered %d publishers, want %d", pubs, len(sc.Publishers))
	}
}

func TestHeterogeneousScenarioRuns(t *testing.T) {
	o := smallOpts()
	o.Heterogeneous = true
	o.SubsPerPublisher = 40
	sc, err := workload.Build("small-hetero", o)
	if err != nil {
		t.Fatal(err)
	}
	// Heterogeneous subscription counts: publisher i gets Ns/(i+1).
	if len(sc.Subscribers) >= o.Publishers*o.SubsPerPublisher {
		t.Fatalf("heterogeneous subscriber count %d not reduced", len(sc.Subscribers))
	}
	res, err := Run(smallConfig(sc, "CRAM-IOU"))
	if err != nil {
		t.Fatal(err)
	}
	if res.AllocatedBrokers < 1 {
		t.Fatal("no brokers allocated")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(ExperimentConfig{}); err == nil {
		t.Error("missing scenario accepted")
	}
	sc, err := workload.Build("small", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ExperimentConfig{Scenario: sc, Approach: "NO-SUCH"}); err == nil {
		t.Error("unknown approach accepted")
	}
}

// TestPrepareCountsProfilingDeliveries pins what the profiling rounds
// leave behind: the delivery count, no per-client log and no observer.
func TestPrepareCountsProfilingDeliveries(t *testing.T) {
	sc, err := workload.Build("profiling", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := Prepare(sc, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if net.TotalDeliveries() == 0 {
		t.Fatal("profiling delivered nothing")
	}
	if net.OnDelivery != nil {
		t.Error("Prepare left its delivery observer installed")
	}
	for _, s := range sc.Subscribers {
		if n := len(net.Client(s.Sub.SubscriberID).Delivered); n != 0 {
			t.Fatalf("client %s logged %d profiling deliveries, want 0", s.Sub.SubscriberID, n)
		}
	}
}

func TestNetworkHelpers(t *testing.T) {
	sc, err := workload.Build("helpers", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	net, infos, err := Prepare(sc, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(sc.Brokers) {
		t.Fatalf("Prepare gathered %d infos", len(infos))
	}
	if net.TotalDeliveries() == 0 {
		t.Fatal("profiling delivered nothing")
	}
	net.ResetClientLogs()
	if net.TotalDeliveries() != 0 {
		t.Fatal("ResetClientLogs kept the counter")
	}
	if err := PublishRound(net, sc, 21); err != nil {
		t.Fatal(err)
	}
	if net.TotalDeliveries() == 0 {
		t.Fatal("PublishRound delivered nothing")
	}
}
