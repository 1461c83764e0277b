package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/telemetry"
)

// queueSampleEvery is the period the brokers' inbox gauges are read at.
const queueSampleEvery = 10 * time.Millisecond

// layerTap reads the brokers' registries, the Go runtime and the inbox
// gauges over exactly a closed loop's measured stretch.
type layerTap struct {
	regs          []*telemetry.Registry
	before, after map[string]float64
	mem0, mem1    runtime.MemStats
	// depth holds, per broker, the sampled inbox depths.
	depth [][]float64
	stop  chan struct{}
	done  chan struct{}
}

// sumRegistries adds up the brokers' counters, and the sums of their
// histograms under name+"_sum".
func sumRegistries(regs []*telemetry.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range regs {
		for _, m := range r.Snapshot() {
			switch m.Kind {
			case telemetry.KindCounter:
				out[m.Name] += float64(m.Value)
			case telemetry.KindHistogram:
				out[m.Name+"_sum"] += m.Sum
			}
		}
	}
	return out
}

func (t *layerTap) begin() {
	t.before = sumRegistries(t.regs)
	runtime.ReadMemStats(&t.mem0)
	t.depth = make([][]float64, len(t.regs))
	gauges := make([]*telemetry.Gauge, len(t.regs))
	for i, r := range t.regs {
		// Registering a name again returns the broker's own gauge.
		gauges[i] = r.Gauge("greenps_broker_queue_depth", "")
	}
	t.stop, t.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.done)
		tick := time.NewTicker(queueSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				for i, g := range gauges {
					t.depth[i] = append(t.depth[i], float64(g.Value()))
				}
			case <-t.stop:
				return
			}
		}
	}()
}

func (t *layerTap) end() {
	close(t.stop)
	<-t.done
	runtime.ReadMemStats(&t.mem1)
	t.after = sumRegistries(t.regs)
}

// delta returns how far a summed registry value moved over the stretch.
func (t *layerTap) delta(name string) float64 { return t.after[name] - t.before[name] }

// openLoopStats is what one open-loop phase contributes to the report.
type openLoopStats struct {
	lat              []float64 // ascending, ms, normalised
	lateP50, lateP99 float64
	valid, drained   bool
	rate             float64 // deliveries per second offered
}

func (g *wireRun) openLoopStats(ph *phase) openLoopStats {
	speed := g.cal.speedOver(ph.startNs, ph.endNs)
	lat := g.recv.latenciesMs(ph)
	for i := range lat {
		lat[i] *= speed
	}
	return openLoopStats{
		lat:     lat,
		lateP50: lateQuantile(ph.late, 0.50),
		lateP99: lateQuantile(ph.late, 0.99),
		valid:   ph.valid(),
		drained: ph.drained >= 0 && ph.drained <= ph.tick,
		rate:    float64(ph.burst*g.spec.fan) / ph.tick.Seconds(),
	}
}

// untracedSaturation deploys without telemetry, saturates it for dur and
// returns the normalised delivery rate: the base of bench.trace_overhead.
func untracedSaturation(p *pass, spec *wireSpec, table []map[string]message.Value, dur time.Duration, root int) (float64, error) {
	d, err := deploy(spec, false)
	if err != nil {
		return 0, err
	}
	defer d.close()
	g := startWireRun(p, spec, table, d, false, root)
	sat := g.closedLoop("saturation-untraced", spec.warmup, dur, nil)
	g.finish()
	g.tally()
	rate, _, _ := g.saturation(sat)
	return rate / p.cal.speedOver(sat.startNs, sat.endNs), nil
}

// runWireTraced is the traced pass of a wire workload: a short untraced
// saturation for the tracing overhead, then a deployment with a
// telemetry registry per broker driven through saturation, cruise and
// the two ladder rates, then the layer benchmarks on the same inputs.
func runWireTraced(p *pass, spec *wireSpec, table []map[string]message.Value, seconds float64) error {
	res := p.res
	root := p.tr.start(spec.name, 0)
	defer p.tr.end(root)
	part := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }

	ref, err := untracedSaturation(p, spec, table, part(0.2), root)
	if err != nil {
		return err
	}

	d, err := deploy(spec, true)
	if err != nil {
		return err
	}
	defer d.close()
	g := startWireRun(p, spec, table, d, true, root)
	tap := &layerTap{regs: d.regs}
	sat := g.closedLoop("saturation", spec.warmup, part(0.3), &phaseHooks{begin: tap.begin, end: tap.end})
	cruise := g.openLoop("cruise", part(0.2), spec.burst)
	ladder4 := g.openLoop("ladder4x", part(0.15), 4*spec.burst)
	ladder8 := g.openLoop("ladder8x", part(0.15), 8*spec.burst)
	g.finish()
	g.tally()

	rate, _, _ := g.saturation(sat)
	if ref > 0 {
		res.set("bench.trace_overhead", rate/p.cal.speedOver(sat.startNs, sat.endNs)/ref)
	}
	if tap.after != nil {
		deliveries := float64(len(g.recv.arrivals(sat.startNs, sat.endNs)))
		res.set("transport.encode_busy_s", tap.delta("greenps_transport_encode_seconds_sum"))
		res.set("transport.decode_busy_s", tap.delta("greenps_transport_decode_seconds_sum"))
		res.set("transport.frames_sent", tap.delta("greenps_transport_frames_sent_total"))
		res.set("transport.bytes_sent", tap.delta("greenps_transport_bytes_sent_total"))
		res.set("transport.write_timeouts", tap.delta("greenps_transport_write_timeouts_total"))
		res.set("broker.msgs_in", tap.delta("greenps_broker_msgs_in_total"))
		res.set("broker.pubs_forwarded", tap.delta("greenps_broker_pubs_forwarded_total"))
		res.set("broker.pubs_delivered", tap.delta("greenps_broker_pubs_delivered_total"))
		res.set("broker.limiter_wait_s", tap.delta("greenps_broker_limiter_wait_seconds_sum"))
		for i, samples := range tap.depth {
			if len(samples) == 0 {
				continue
			}
			var sum, max float64
			for _, v := range samples {
				sum += v
				max = math.Max(max, v)
			}
			res.set(fmt.Sprintf("broker.B%d.queue_depth_mean", i), sum/float64(len(samples)))
			res.set(fmt.Sprintf("broker.B%d.queue_depth_max", i), max)
		}
		if deliveries > 0 {
			res.set("runtime.mallocs_per_delivery", float64(tap.mem1.Mallocs-tap.mem0.Mallocs)/deliveries)
			res.set("runtime.alloc_bytes_per_delivery", float64(tap.mem1.TotalAlloc-tap.mem0.TotalAlloc)/deliveries)
		}
		res.set("runtime.gc_cycles", float64(tap.mem1.NumGC-tap.mem0.NumGC))
	}

	if n := len(cruise.inPublish); n > 0 {
		speed := p.cal.speedOver(cruise.startNs, cruise.endNs)
		sort.Float64s(cruise.inPublish)
		var sum float64
		for _, v := range cruise.inPublish {
			sum += v
		}
		res.set("client.publish_ns_mean", sum/float64(n)*speed)
		res.set("client.publish_ns_p99", percentile(cruise.inPublish, 0.99)*speed)
		res.Samples["client.publish_ns_p99"] = n
	}

	cs := g.openLoopStats(cruise)
	res.set("bench.gen_late_p50_ms", cs.lateP50)
	res.set("bench.gen_late_p99_ms", cs.lateP99)
	res.set("bench.lat_samples", float64(len(cs.lat)))
	res.set("bench.lat_p90_ms", percentile(cs.lat, 0.90))
	// A tail percentile is reported only with ten samples beyond it.
	for _, tail := range []struct {
		name string
		q    float64
	}{{"bench.lat_p99_ms", 0.99}, {"bench.lat_p999_ms", 0.999}} {
		if supports(len(cs.lat), tail.q) {
			res.set(tail.name, percentile(cs.lat, tail.q))
			res.Samples[tail.name] = len(cs.lat)
		}
	}
	s4, s8 := g.openLoopStats(ladder4), g.openLoopStats(ladder8)
	res.set("bench.ladder4x_p50_ms", percentile(s4.lat, 0.50))
	res.set("bench.ladder4x_p90_ms", percentile(s4.lat, 0.90))
	res.set("bench.ladder4x_gen_late_p99_ms", s4.lateP99)
	res.set("bench.ladder8x_p50_ms", percentile(s8.lat, 0.50))
	res.set("bench.ladder8x_p90_ms", percentile(s8.lat, 0.90))
	res.set("bench.ladder8x_gen_late_p99_ms", s8.lateP99)

	// The sustained rate is the highest offered rate that kept its p90
	// under the limit with nothing lost and the backlog gone within one
	// tick of the last send. A phase whose generator fell behind its own
	// schedule proves nothing either way and is named, not counted.
	sustained, invalid := 0.0, 0
	for _, ph := range []struct {
		name string
		s    openLoopStats
	}{{"cruise", cs}, {"ladder4x", s4}, {"ladder8x", s8}} {
		if !ph.s.valid {
			invalid++
			res.Invalid = append(res.Invalid, fmt.Sprintf("%s: generator p99 lateness %.3f ms exceeds the %v tick",
				ph.name, ph.s.lateP99, spec.tick))
			continue
		}
		if ph.s.drained && res.Failed == 0 && percentile(ph.s.lat, 0.90) <= sustainedP90Ms {
			sustained = math.Max(sustained, ph.s.rate)
		}
	}
	res.set("bench.sustained_rate", sustained)
	res.set("bench.invalid_phases", float64(invalid))

	layers := p.tr.start("layers", root)
	defer p.tr.end(layers)
	in := &tableInput{
		advs: []*message.Advertisement{message.NewAdvertisement(wireAdvID, "pub", nil)},
		subs: wireSubscriptions(spec),
	}
	for i := 0; i < microBatch; i++ {
		in.pubs = append(in.pubs, &message.Publication{AdvID: wireAdvID, Seq: i, Attrs: table[i%len(table)]})
	}
	if err := p.microCodec(layers, in.pubs); err != nil {
		return err
	}
	if err := p.microMatching(layers, in); err != nil {
		return err
	}
	return p.microBroker(layers, in)
}
