// Benchmark harness: one testing.B benchmark per reproduced table/figure
// (the E1..E12 and T1 index in DESIGN.md). Each benchmark runs the
// corresponding experiment at reduced (Quick) scale so `go test -bench=.`
// finishes in minutes, and reports the headline quantities as custom
// metrics; `cmd/greenbench -exp all` regenerates the same tables at full
// paper scale.
package greenps_test

import (
	"strconv"
	"testing"

	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/experiments"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/metrics"
	"github.com/greenps/greenps/internal/sim"
	"github.com/greenps/greenps/internal/workload"
)

// benchCfg is the shared reduced-scale configuration.
func benchCfg() experiments.Config {
	c := experiments.Quick()
	c.Sizes = []int{20, 40}
	c.HeteroSizes = []int{40}
	return c
}

// reportSweep publishes per-approach metrics from the largest sweep size.
func reportSweep(b *testing.B, sw *experiments.Sweep, metric func(*sim.Result) float64, unit string) {
	b.Helper()
	size := sw.Sizes[len(sw.Sizes)-1]
	for _, ap := range sw.Approaches {
		if res := sw.Results[ap][size]; res != nil {
			b.ReportMetric(metric(res), ap+"_"+unit)
		}
	}
}

// BenchmarkE1MessageRateHomogeneous reproduces E1: average broker message
// rate (pool-normalized) per approach, homogeneous cluster.
func BenchmarkE1MessageRateHomogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := experiments.RunHomogeneous(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSweep(b, sw, func(r *sim.Result) float64 { return r.AvgRatePerPoolBroker }, "msgs/s")
		}
	}
}

// BenchmarkE2AllocatedBrokersHomogeneous reproduces E2: allocated broker
// counts per approach.
func BenchmarkE2AllocatedBrokersHomogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := experiments.RunHomogeneous(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSweep(b, sw, func(r *sim.Result) float64 { return float64(r.AllocatedBrokers) }, "brokers")
		}
	}
}

// BenchmarkE3HopCount reproduces E3: average delivery hop count.
func BenchmarkE3HopCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := experiments.RunHomogeneous(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSweep(b, sw, func(r *sim.Result) float64 { return r.AvgHops }, "hops")
		}
	}
}

// BenchmarkE4DeliveryDelay reproduces E4: average modeled delivery delay.
func BenchmarkE4DeliveryDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := experiments.RunHomogeneous(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSweep(b, sw, func(r *sim.Result) float64 { return r.AvgDelayMs }, "ms")
		}
	}
}

// BenchmarkE5MessageRateHeterogeneous reproduces E5 on the capacity-tiered
// cluster.
func BenchmarkE5MessageRateHeterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := experiments.RunHeterogeneous(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSweep(b, sw, func(r *sim.Result) float64 { return r.AvgRatePerPoolBroker }, "msgs/s")
		}
	}
}

// BenchmarkE6AllocatedBrokersHeterogeneous reproduces E6.
func BenchmarkE6AllocatedBrokersHeterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := experiments.RunHeterogeneous(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSweep(b, sw, func(r *sim.Result) float64 { return float64(r.AllocatedBrokers) }, "brokers")
		}
	}
}

// BenchmarkE7ComputationTime reproduces E7: pure planning time per
// algorithm over one gathered snapshot (no simulation in the timed loop).
func BenchmarkE7ComputationTime(b *testing.B) {
	cfg := benchCfg()
	o := workload.Defaults()
	o.Brokers = cfg.Brokers
	o.Publishers = cfg.Publishers
	o.SubsPerPublisher = cfg.Sizes[len(cfg.Sizes)-1]
	o.Seed = cfg.Seed
	sc, err := workload.Build("e7", o)
	if err != nil {
		b.Fatal(err)
	}
	_, infos, err := sim.Prepare(sc, cfg.ProfileRounds, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range core.Algorithms() {
		b.Run(alg, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ComputePlan(infos, core.Config{Algorithm: alg, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8CRAMAblation reproduces E8: the CRAM optimization ablation.
func BenchmarkE8CRAMAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.CRAMAblation(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportAblationComputations(b, s)
		}
	}
}

// reportAblationComputations surfaces closeness-computation counts per
// ablation variant.
func reportAblationComputations(b *testing.B, s *metrics.Series) {
	b.Helper()
	for _, row := range s.Rows {
		if v, err := strconv.ParseFloat(row[2], 64); err == nil {
			b.ReportMetric(v, sanitizeMetricName(row[0])+"_comps")
		}
	}
}

func sanitizeMetricName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == ',':
			out = append(out, '_')
		case r == '(' || r == ')':
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkE9LargeScale reproduces E9 at the quick-mode scale (100
// brokers); greenbench -exp e9 -full runs 400 and 1,000 brokers.
func BenchmarkE9LargeScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LargeScale(benchCfg(), false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10OverlayAblation reproduces E10: Phase-3 optimization
// ablation.
func BenchmarkE10OverlayAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.OverlayAblation(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11GrapeOnly reproduces E11: publisher relocation alone vs the
// full pipeline under the every-broker-subscribed workload.
func BenchmarkE11GrapeOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GrapeOnly(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12PosetInsert reproduces E12: poset insertion scalability (see
// also internal/poset's BenchmarkInsertGIFs for the isolated data
// structure).
func BenchmarkE12PosetInsert(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PosetScaling(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT1Summary regenerates the T1 reduction summary and reports the
// headline reductions vs MANUAL.
func BenchmarkT1Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := experiments.RunHomogeneous(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i != b.N-1 {
			continue
		}
		size := sw.Sizes[len(sw.Sizes)-1]
		manual := sw.Results[sim.ApproachManual][size]
		cram := sw.Results["CRAM-IOS"][size]
		if manual == nil || cram == nil {
			b.Fatal("missing results")
		}
		brokerRed := (1 - float64(cram.AllocatedBrokers)/float64(manual.AllocatedBrokers)) * 100
		rateRed := (1 - cram.AvgRatePerPoolBroker/manual.AvgRatePerPoolBroker) * 100
		b.ReportMetric(brokerRed, "broker_reduction_%")
		b.ReportMetric(rateRed, "msgrate_reduction_%")
		if brokerRed <= 0 || rateRed <= 0 {
			b.Fatalf("reductions non-positive: brokers %.1f%%, rate %.1f%%", brokerRed, rateRed)
		}
	}
}

// BenchmarkRoutingThroughput measures the substrate itself: publications
// per second through a 16-broker overlay with 1,200 subscriptions.
func BenchmarkRoutingThroughput(b *testing.B) {
	o := workload.Defaults()
	o.Brokers = 16
	o.Publishers = 6
	o.SubsPerPublisher = 200
	sc, err := workload.Build("throughput", o)
	if err != nil {
		b.Fatal(err)
	}
	net, _, err := sim.Prepare(sc, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	_ = net
	b.ResetTimer()
	pubs := 0
	for i := 0; i < b.N; i++ {
		// Replay one publication round through the deployed overlay.
		for j := range sc.Publishers {
			p := &sc.Publishers[j]
			env := &message.Envelope{Kind: message.KindPublication, Pub: p.Stock.Publication(p.AdvID, i+1, i+1)}
			if err := net.SendFromClient(p.ClientID, env); err != nil {
				b.Fatal(err)
			}
		}
		net.Advance(1 / sc.Publishers[0].Rate)
		pubs += len(sc.Publishers)
	}
	b.ReportMetric(float64(pubs)/b.Elapsed().Seconds(), "pubs/s")
}
