package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/greenps/greenps/internal/allocation"
	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/croc"
	"github.com/greenps/greenps/internal/experiments"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/sim"
	"github.com/greenps/greenps/internal/workload"
)

// paperSpec sizes plan_paper8k: the paper's headline cluster
// configuration (E7/T1) planned with CRAM-IOS on one core.
type paperSpec struct {
	brokers, publishers, subsPerPublisher int
	profileRounds, measureRounds          int
	// pairs and searches size the bitvector and poset layer benchmarks.
	pairs, searches int
}

var paper8k = paperSpec{
	brokers: 80, publishers: 40, subsPerPublisher: 200,
	profileRounds: 200, measureRounds: 20,
	pairs: 10000, searches: 200,
}

// scaleSpec sizes alloc_scale20k: the 20k point of BENCH_scale.json with
// sharding and spill forced on, so that the mechanisms are on the
// measured path; requireMechanisms fails the pass when either did not
// engage.
type scaleSpec struct {
	subs, shards, spillBudget int
	setups                    int
	requireMechanisms         bool
	pairs                     int
}

var scale20k = scaleSpec{
	subs: 20000, shards: 16, spillBudget: 16 << 10, setups: 5,
	requireMechanisms: true, pairs: 10000,
}

const planAlgorithm = core.AlgCRAMIOS

// planMeasure is one timed planning call.
type planMeasure struct {
	startNs, endNs int64
	cpu            time.Duration
	allocBytes     uint64
	gcCycles       uint32
}

// measurePlan times fn against the pass clock and the process CPU
// clock; the traced pass also reads the allocator's totals around it.
func (p *pass) measurePlan(fn func() error) (planMeasure, error) {
	var m planMeasure
	var m0, m1 runtime.MemStats
	if p.res.Traced {
		runtime.ReadMemStats(&m0)
	}
	cpu0 := p.cpu()
	m.startNs = p.now()
	err := fn()
	m.endNs = p.now()
	m.cpu = p.cpu() - cpu0
	if p.res.Traced {
		runtime.ReadMemStats(&m1)
		m.allocBytes, m.gcCycles = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	}
	return m, err
}

// reportPlanTimes turns the timed planning calls of a pass into the
// end-to-end numbers: the wait is the median call, the rate and the CPU
// cost are per subscription planned.
func (p *pass) reportPlanTimes(calls []planMeasure, subs int) {
	var wait, rawWait, rate, rawRate, cpu, rawCPU []float64
	for _, m := range calls {
		speed := p.cal.speedOver(m.startNs, m.endNs)
		sec := float64(m.endNs-m.startNs) / 1e9
		rawWait, wait = append(rawWait, sec*1e3), append(wait, sec*1e3*speed)
		rawRate, rate = append(rawRate, float64(subs)/sec), append(rate, float64(subs)/sec/speed)
		us := float64(m.cpu.Microseconds()) / float64(subs)
		rawCPU, cpu = append(rawCPU, us), append(cpu, us*speed)
	}
	p.res.setRaw("wait_p50_ms", median(wait), median(rawWait))
	p.res.setRaw("op_rate", median(rate), median(rawRate))
	p.res.setRaw("cpu_us_per_op", median(cpu), median(rawCPU))
	p.res.Samples["wait_p50_ms"] = len(calls)
}

// repeatFor calls plan at least once and again until the calls have taken
// the run's measuring time; at full size one call outlasts it.
func (p *pass) repeatFor(seconds float64, plan func() (planMeasure, error)) ([]planMeasure, error) {
	var calls []planMeasure
	var spent float64
	for len(calls) == 0 || spent < seconds {
		m, err := plan()
		if err != nil {
			return nil, err
		}
		calls = append(calls, m)
		spent += float64(m.endNs-m.startNs) / 1e9
	}
	return calls, nil
}

func digestOf(data []byte) string { return fmt.Sprintf("%x", sha256.Sum256(data)) }

// planDigest identifies a plan by its deployable content: the croc plan
// document without the time it took to compute.
func planDigest(plan *core.Plan) (string, error) {
	doc := croc.ToDoc(plan)
	doc.ComputeMillis = 0
	data, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("encode plan document: %w", err)
	}
	return digestOf(data), nil
}

// checkPlacedOnce verifies that the hosted units place each of the wanted
// subscriptions exactly once; each subscription is one attempted
// operation.
func (p *pass) checkPlacedOnce(hosted map[string][]*allocation.Unit, want map[string]bool) {
	seen := make(map[string]int, len(want))
	for _, units := range hosted {
		for _, u := range units {
			for _, m := range u.Members {
				if m.SubID != "" {
					seen[m.SubID]++
				}
			}
		}
	}
	p.res.Attempted += int64(len(want))
	var bad int64
	for id := range want {
		if seen[id] != 1 {
			bad++
		}
	}
	for id := range seen {
		if !want[id] {
			bad++
		}
	}
	p.res.fail(bad, "%d subscriptions were not placed exactly once", bad)
}

// oracleDeliveries counts, by brute force over every subscription and
// every publication of the measured rounds, the deliveries a correct
// deployment must make.
func oracleDeliveries(sc *workload.Scenario, firstRound, rounds int) int {
	total := 0
	for r := firstRound; r < firstRound+rounds; r++ {
		for i := range sc.Publishers {
			pub := sc.Publishers[i].Stock.Publication(sc.Publishers[i].AdvID, r, r)
			for j := range sc.Subscribers {
				if sc.Subscribers[j].Sub.Matches(pub) {
					total++
				}
			}
		}
	}
	return total
}

// runPaper runs one pass of plan_paper8k: generate the scenario, profile
// it in the simulator (set-up), plan it, deploy the plan in the simulator
// and check what it delivers.
func runPaper(p *pass, spec paperSpec, seconds float64) error {
	res := p.res
	root := p.tr.start(res.Workload, 0)
	defer p.tr.end(root)

	o := workload.Defaults()
	o.Brokers, o.Publishers, o.SubsPerPublisher, o.Seed = spec.brokers, spec.publishers, spec.subsPerPublisher, res.Seed
	sc, err := workload.Build(res.Workload, o)
	if err != nil {
		return err
	}
	subs := len(sc.Subscribers)

	var infos []message.BrokerInfo
	id := p.tr.start("sim.Prepare", root)
	setup, rawSetup := p.setupTime(func() { _, infos, err = sim.Prepare(sc, spec.profileRounds, 0) })
	p.tr.end(id)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	res.setRaw("setup_s", setup, rawSetup)

	cfg := core.Config{Algorithm: planAlgorithm, Parallelism: 1, Seed: res.Seed, ProfileCapacity: 1280}
	if res.Traced {
		cfg.Clock = time.Now
	}
	var plan *core.Plan
	calls, err := p.repeatFor(seconds, func() (planMeasure, error) {
		call := p.tr.start("core.ComputePlan", root)
		defer p.tr.end(call)
		m, planErr := p.measurePlan(func() (e error) {
			plan, e = core.ComputePlan(infos, cfg)
			return e
		})
		if planErr == nil && res.Traced {
			p.tracePhases(call, plan, m)
		}
		return m, planErr
	})
	if err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	p.reportPlanTimes(calls, subs)

	var out *sim.Result
	id = p.tr.start("sim.RunWithPlan", root)
	validate, _ := p.timed(func() {
		out, err = sim.RunWithPlan(sc, plan, sim.ExperimentConfig{
			Scenario: sc, Approach: planAlgorithm,
			ProfileRounds: spec.profileRounds, MeasureRounds: spec.measureRounds,
		})
	})
	p.tr.end(id)
	if err != nil {
		return fmt.Errorf("deploy the plan: %w", err)
	}
	res.set("brokers", float64(plan.NumBrokers()))
	res.set("msg_rate", out.TotalMsgRate)
	res.set("peak_rss_mb", peakRSSMB())

	id = p.tr.start("checks", root)
	err = plan.Tree.Validate()
	res.check(err == nil, "overlay: %v", err)
	pubs := make(map[string]*bitvector.PublisherStats)
	for i := range infos {
		for _, pi := range infos[i].Publishers {
			pubs[pi.Stats.AdvID] = pi.Stats
		}
	}
	err = plan.Assignment.CheckCapacity(pubs)
	res.check(err == nil, "capacity: %v", err)
	want := make(map[string]bool, subs)
	for i := range sc.Subscribers {
		want[sc.Subscribers[i].Sub.ID] = true
	}
	p.checkPlacedOnce(plan.Tree.Hosted, want)
	res.check(len(plan.Subscribers) == subs, "the plan places %d subscribers, the scenario has %d", len(plan.Subscribers), subs)
	oracle := oracleDeliveries(sc, spec.profileRounds, spec.measureRounds)
	res.check(out.Deliveries == oracle, "the deployed plan made %d deliveries, the matching oracle predicts %d", out.Deliveries, oracle)
	res.Digest, err = planDigest(plan)
	p.tr.end(id)
	if err != nil {
		return err
	}

	if !res.Traced {
		return nil
	}
	res.set("sim.validate_s", validate)
	res.set("sim.deliveries", float64(out.Deliveries))
	res.set("sim.avg_hops", out.AvgHops)
	res.set("sim.avg_delay_ms", out.AvgDelayMs)
	p.reportCRAM(plan.CRAMStats, calls[len(calls)-1])
	return p.paperLayers(root, sc, infos, pubs, cfg, spec)
}

// tracePhases records the planner's own stage times as child spans and
// checks that they account for the call: the four must sum to within 2%
// of the wall time measured around it.
func (p *pass) tracePhases(parent int, plan *core.Plan, m planMeasure) {
	pt := plan.PhaseTimes
	speed := p.cal.speedOver(m.startNs, m.endNs)
	at := p.epoch.Add(time.Duration(m.startNs))
	for _, st := range []struct {
		metric, span string
		d            time.Duration
	}{
		{"core.inputs_s", "core.inputs", pt.Inputs},
		{"core.allocate_s", "allocation.Allocate", pt.Allocate},
		{"core.build_s", "overlaybuild.Build", pt.Build},
		{"core.grape_s", "grape.Relocate", pt.Grape},
	} {
		p.res.set(st.metric, st.d.Seconds()*speed)
		p.tr.add(st.span, parent, at, st.d)
		at = at.Add(st.d)
	}
	sum := (pt.Inputs + pt.Allocate + pt.Build + pt.Grape).Seconds()
	wall := float64(m.endNs-m.startNs) / 1e9
	// The stages leave out a few fixed steps (the final subscriber
	// placement); 2 ms covers them where a toy plan takes less than 100.
	slack := math.Max(0.02*wall, 0.002)
	p.res.check(math.Abs(sum-wall) <= slack,
		"the planner's stage times sum to %.4fs, the call took %.4fs", sum, wall)
}

// reportCRAM copies CRAM's exact work counts and the allocator totals of
// the planning call m.
func (p *pass) reportCRAM(st *allocation.CRAMStats, m planMeasure) {
	res := p.res
	res.set("runtime.plan_alloc_mb", float64(m.allocBytes)/(1<<20))
	res.set("runtime.gc_cycles", float64(m.gcCycles))
	if st == nil {
		return
	}
	res.set("allocation.gifs", float64(st.InitialGIFs))
	res.set("allocation.final_units", float64(st.FinalUnits))
	res.set("allocation.closeness_comps", float64(st.ClosenessComputations))
	res.set("allocation.bound_pruned", float64(st.BoundPruned))
	if st.ClosenessComputations > 0 {
		res.set("allocation.prune_ratio", float64(st.BoundPruned)/float64(st.ClosenessComputations))
	}
	res.set("allocation.cover_comps", float64(st.CoverComputations))
	res.set("allocation.pack_attempts", float64(st.PackAttempts))
	res.set("allocation.clusters_accepted", float64(st.ClustersAccepted))
	res.set("allocation.clusters_rejected", float64(st.ClustersRejected))
	res.set("allocation.shards_pruned", float64(st.ShardsPruned))
	res.set("allocation.spilled_runs", float64(st.SpilledRuns))
}

// runScale runs one pass of alloc_scale20k: synthesise the allocation
// input (set-up) and allocate it through sharded exhaustive CRAM-IOS with
// a spill budget small enough to spill. outDir receives the spill runs.
func runScale(p *pass, spec scaleSpec, seconds float64, outDir string) error {
	res := p.res
	root := p.tr.start(res.Workload, 0)
	defer p.tr.end(root)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("spill directory: %w", err)
	}

	var in *allocation.Input
	var setups, rawSetups []float64
	for i := 0; i < spec.setups; i++ {
		var err error
		id := p.tr.start("experiments.ScaleWorkload", root)
		s, raw := p.setupTime(func() { in, err = experiments.ScaleWorkload(res.Seed, spec.subs) })
		p.tr.end(id)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups, rawSetups = append(setups, s), append(rawSetups, raw)
	}
	res.setRaw("setup_s", median(setups), median(rawSetups))

	var cram *allocation.CRAM
	var asg *allocation.Assignment
	calls, err := p.repeatFor(seconds, func() (planMeasure, error) {
		id := p.tr.start("allocation.CRAM.Allocate", root)
		defer p.tr.end(id)
		cram = &allocation.CRAM{
			Metric: bitvector.MetricIOS, ExhaustiveSearch: true, Parallelism: 1,
			Shards: spec.shards, SpillBudgetBytes: spec.spillBudget, SpillDir: outDir,
		}
		return p.measurePlan(func() (err error) {
			asg, err = cram.Allocate(in)
			return err
		})
	})
	if err != nil {
		return fmt.Errorf("allocate: %w", err)
	}
	p.reportPlanTimes(calls, spec.subs)
	st := cram.Stats()

	res.set("brokers", float64(asg.NumAllocated()))
	// There is no deployment to measure here; the message rate is the
	// one the assignment predicts, input plus output over the allocated
	// brokers, in sorted order so the sum is the same every time.
	var predicted float64
	for _, b := range asg.AllocatedBrokers() {
		predicted += asg.Loads[b].Input.Rate + asg.Loads[b].Output.Rate
	}
	res.set("msg_rate", predicted)
	res.set("peak_rss_mb", peakRSSMB())

	id := p.tr.start("checks", root)
	err = asg.CheckCapacity(in.Publishers)
	res.check(err == nil, "capacity: %v", err)
	want := make(map[string]bool, len(in.Units))
	for _, u := range in.Units {
		for _, m := range u.Members {
			want[m.SubID] = true
		}
	}
	p.checkPlacedOnce(asg.ByBroker, want)
	if spec.requireMechanisms {
		res.check(st.ShardsPruned > 0, "no shard was pruned: sharding is not on the measured path")
		res.check(st.SpilledRuns > 0, "no run was spilled: spill is not on the measured path")
	}
	res.Digest = digestOf([]byte(asg.Fingerprint()))
	p.tr.end(id)

	if !res.Traced {
		return nil
	}
	p.reportCRAM(&st, calls[len(calls)-1])
	return p.scaleLayers(root, in, st.InitialGIFs, spec, outDir)
}

// sortedProfiles returns the profiles of the allocation input's units in
// unit order, the pool the bitvector and poset benchmarks draw from.
func sortedProfiles(units []*allocation.Unit) []*bitvector.Profile {
	us := append([]*allocation.Unit(nil), units...)
	sort.Slice(us, func(a, b int) bool { return us[a].ID < us[b].ID })
	out := make([]*bitvector.Profile, len(us))
	for i, u := range us {
		out[i] = u.Profile
	}
	return out
}
