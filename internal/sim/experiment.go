package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/greenps/greenps/internal/allocation"
	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/grape"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/overlaybuild"
	"github.com/greenps/greenps/internal/workload"
)

// Baseline approach names. Reconfiguring approaches use the core.Alg*
// algorithm names. GRAPE-ONLY keeps the MANUAL topology and subscriber
// placement and relocates only the publishers — the single-variable prior
// approach the paper argues cannot reduce system message rate when every
// broker hosts matching subscribers (Section II-B).
const (
	ApproachManual    = "MANUAL"
	ApproachAutomatic = "AUTOMATIC"
	ApproachGrapeOnly = "GRAPE-ONLY"
)

// Approaches lists every approach the harness can run, in the paper's
// presentation order: baselines, related work, then the proposed
// algorithms.
func Approaches() []string {
	return append([]string{ApproachManual, ApproachAutomatic}, core.Algorithms()...)
}

// ExperimentConfig drives one experiment run.
type ExperimentConfig struct {
	// Scenario is the generated workload and MANUAL deployment.
	Scenario *workload.Scenario
	// Approach is a baseline name or a core.Alg* algorithm name.
	Approach string
	// ProfileRounds is the number of publications per publisher during
	// Phase-1 profiling (default 200; must not exceed the bit-vector
	// capacity).
	ProfileRounds int
	// MeasureRounds is the number of publications per publisher during
	// the measured phase (default 100).
	MeasureRounds int
	// ProfileCapacity is the bit-vector capacity (default 1280).
	ProfileCapacity int
	// Seed drives random choices (AUTOMATIC topology, FBF order, ...).
	Seed int64
	// Core carries ablation switches through to the planner.
	Core core.Config
}

func (c *ExperimentConfig) withDefaults() ExperimentConfig {
	out := *c
	if out.ProfileRounds == 0 {
		out.ProfileRounds = 200
	}
	if out.MeasureRounds == 0 {
		out.MeasureRounds = 100
	}
	if out.ProfileCapacity == 0 {
		out.ProfileCapacity = 1280
	}
	return out
}

// BrokerStat is one broker's measured load.
type BrokerStat struct {
	ID string
	// MsgRate is (input + output) messages per second.
	MsgRate float64
	// Utilization is output bytes per second over capacity.
	Utilization float64
}

// Result is one experiment run's measurements — one point on each of the
// paper's evaluation curves.
type Result struct {
	Scenario      string
	Approach      string
	Subscriptions int
	// AllocatedBrokers is the broker count carrying the workload.
	AllocatedBrokers int
	// PoolBrokers is the size of the full broker pool the scenario
	// provides (deallocated brokers idle at zero load).
	PoolBrokers int
	// AvgBrokerMsgRate is the mean per-broker (in+out) message rate over
	// allocated brokers, msgs/s.
	AvgBrokerMsgRate float64
	// AvgRatePerPoolBroker is the total message rate normalized by the
	// full pool size — the paper's "average broker message rate", where
	// brokers freed by the reconfiguration contribute zero.
	AvgRatePerPoolBroker float64
	// TotalMsgRate is the system-wide broker message rate, msgs/s.
	TotalMsgRate float64
	// AvgHops is the mean broker-hop count per delivery.
	AvgHops float64
	// AvgDelayMs is the mean modeled delivery delay in milliseconds.
	AvgDelayMs float64
	// Deliveries counts publications delivered during measurement.
	Deliveries int
	// AvgUtilization is the mean output-bandwidth utilization of
	// allocated brokers.
	AvgUtilization float64
	// ComputeTime is the reconfiguration planning time (zero for
	// baselines).
	ComputeTime time.Duration
	// Brokers is the per-broker breakdown.
	Brokers []BrokerStat
	// CRAMStats/BuildStats are populated for reconfiguring approaches.
	CRAMStats  *allocation.CRAMStats
	BuildStats *overlaybuild.Stats
}

// Run executes one experiment: deploy, profile, (optionally) reconfigure,
// and measure.
func Run(cfg ExperimentConfig) (*Result, error) {
	c := cfg.withDefaults()
	sc := c.Scenario
	if sc == nil {
		return nil, fmt.Errorf("sim: no scenario configured")
	}
	// Baselines measure over the same publication rounds
	// [ProfileRounds, ProfileRounds+MeasureRounds) as reconfigured runs, so
	// every approach sees the identical quote stream.
	switch c.Approach {
	case ApproachManual:
		net, err := deployManual(sc, c.ProfileCapacity, nil)
		if err != nil {
			return nil, err
		}
		return measure(net, sc, c, net.Brokers(), c.ProfileRounds, nil, nil, 0)
	case ApproachAutomatic:
		net, err := deployAutomatic(sc, c.ProfileCapacity, c.Seed)
		if err != nil {
			return nil, err
		}
		return measure(net, sc, c, net.Brokers(), c.ProfileRounds, nil, nil, 0)
	case ApproachGrapeOnly:
		return runGrapeOnly(sc, c)
	default:
		return runReconfigured(sc, c)
	}
}

// runReconfigured performs the full 3-phase pipeline: MANUAL deployment,
// profiling traffic, BIR/BIA gathering, planning, re-instantiation, and
// measurement — mirroring the paper's procedure of restarting every broker
// from a clean state after Phase 3.
func runReconfigured(sc *workload.Scenario, c ExperimentConfig) (*Result, error) {
	net, err := deployManual(sc, c.ProfileCapacity, nil)
	if err != nil {
		return nil, err
	}
	// Phase 1a: profiling traffic fills the bit vectors.
	if err = profileTraffic(net, sc, c.ProfileRounds); err != nil {
		return nil, err
	}
	// Phase 1b: CROC connects to any broker and floods a BIR.
	infos, err := GatherInfos(net, sc.Brokers[0].ID)
	if err != nil {
		return nil, err
	}
	// Phases 2+3 and GRAPE.
	coreCfg := c.Core
	coreCfg.Algorithm = c.Approach
	coreCfg.ProfileCapacity = c.ProfileCapacity
	if coreCfg.Seed == 0 {
		coreCfg.Seed = c.Seed
	}
	if coreCfg.Clock == nil {
		coreCfg.Clock = time.Now
	}
	plan, err := core.ComputePlan(infos, coreCfg)
	if err != nil {
		return nil, err
	}
	return RunWithPlan(sc, plan, c)
}

// RunWithPlan re-instantiates the system per a precomputed plan and
// measures it — the paper's "restart every broker from a clean state"
// step as a reusable building block (used by the GRAPE priority example
// to compare placements over one fixed overlay).
func RunWithPlan(sc *workload.Scenario, plan *core.Plan, cfg ExperimentConfig) (*Result, error) {
	c := cfg.withDefaults()
	net, err := deployPlan(sc, plan, c.ProfileCapacity)
	if err != nil {
		return nil, err
	}
	return measure(net, sc, c, plan.Tree.Brokers(), c.ProfileRounds,
		plan.CRAMStats, &plan.BuildStats, plan.ComputeTime)
}

// Prepare deploys the scenario's MANUAL topology, runs the profiling
// rounds, and gathers the broker information — Phase 1 as a standalone,
// reusable step for planning-only experiments (the E7/E8 ablations plan
// repeatedly over one gathered snapshot).
func Prepare(sc *workload.Scenario, profileRounds, capacity int) (*Network, []message.BrokerInfo, error) {
	if profileRounds <= 0 {
		profileRounds = 200
	}
	if capacity <= 0 {
		capacity = 1280
	}
	net, err := deployManual(sc, capacity, nil)
	if err != nil {
		return nil, nil, err
	}
	if err = profileTraffic(net, sc, profileRounds); err != nil {
		return nil, nil, err
	}
	infos, err := GatherInfos(net, sc.Brokers[0].ID)
	if err != nil {
		return nil, nil, err
	}
	return net, infos, nil
}

// GatherInfos runs the Phase-1 protocol against a live network: a CROC
// client attaches to the given broker, floods a BIR, and returns the
// aggregated broker information.
func GatherInfos(net *Network, viaBroker string) ([]message.BrokerInfo, error) {
	crocID := "croc-gatherer"
	if net.Client(crocID) == nil {
		if _, err := net.AttachClient(crocID, viaBroker); err != nil {
			return nil, err
		}
	}
	croc := net.Client(crocID)
	croc.BIAs = nil
	if err := net.SendFromClient(crocID, &message.Envelope{
		Kind: message.KindBIR,
		BIR:  &message.BIR{RequestID: fmt.Sprintf("bir-%d", int(net.Now()*1000))},
	}); err != nil {
		return nil, err
	}
	if len(croc.BIAs) != 1 {
		return nil, fmt.Errorf("sim: CROC received %d BIAs, want 1", len(croc.BIAs))
	}
	return croc.BIAs[0].Infos, nil
}

// newBrokerCfg maps a scenario broker definition to a broker config.
func newBrokerCfg(b workload.BrokerDef, capacity int) broker.Config {
	return broker.Config{
		ID:              b.ID,
		URL:             "sim://" + b.ID,
		Delay:           b.Delay,
		OutputBandwidth: b.OutputBandwidth,
		ProfileCapacity: capacity,
	}
}

// deployManual builds the scenario's fan-out-2 MANUAL deployment. Each
// publisher attaches at its placement broker when placement names one
// (GRAPE-only's redeploy) and at its home broker otherwise; nil keeps every
// home broker.
func deployManual(sc *workload.Scenario, capacity int, placement grape.Placement) (*Network, error) {
	net := NewNetwork()
	net.TracePaths = false
	for _, b := range sc.Brokers {
		if _, err := net.AddBroker(newBrokerCfg(b, capacity)); err != nil {
			return nil, err
		}
	}
	for _, e := range sc.Tree {
		if err := net.ConnectBrokers(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	place := func(p workload.PublisherDef) string {
		if b, ok := placement[p.AdvID]; ok {
			return b
		}
		return p.HomeBroker
	}
	placeSub := func(s workload.SubscriberDef) string { return s.HomeBroker }
	if err := attachClients(net, sc, place, placeSub); err != nil {
		return nil, err
	}
	return net, nil
}

// deployAutomatic builds the AUTOMATIC baseline: random tree over all
// brokers, uniformly random client placement.
func deployAutomatic(sc *workload.Scenario, capacity int, seed int64) (*Network, error) {
	rng := rand.New(rand.NewSource(seed ^ 0xA07003A7))
	net := NewNetwork()
	net.TracePaths = false
	ids := make([]string, len(sc.Brokers))
	for i, b := range sc.Brokers {
		ids[i] = b.ID
		if _, err := net.AddBroker(newBrokerCfg(b, capacity)); err != nil {
			return nil, err
		}
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for i := 1; i < len(ids); i++ {
		if err := net.ConnectBrokers(ids[rng.Intn(i)], ids[i]); err != nil {
			return nil, err
		}
	}
	place := func(p workload.PublisherDef) string { return ids[rng.Intn(len(ids))] }
	placeSub := func(s workload.SubscriberDef) string { return ids[rng.Intn(len(ids))] }
	if err := attachClients(net, sc, place, placeSub); err != nil {
		return nil, err
	}
	return net, nil
}

// deployPlan re-instantiates the system per a reconfiguration plan: only
// allocated brokers run, connected as the constructed tree; subscribers and
// publishers attach where the plan says.
func deployPlan(sc *workload.Scenario, plan *core.Plan, capacity int) (*Network, error) {
	net := NewNetwork()
	net.TracePaths = false
	for _, id := range plan.Tree.Brokers() {
		spec := plan.Tree.Specs[id]
		if _, err := net.AddBroker(broker.Config{
			ID:              id,
			URL:             spec.URL,
			Delay:           spec.Delay,
			OutputBandwidth: spec.OutputBandwidth,
			ProfileCapacity: capacity,
		}); err != nil {
			return nil, err
		}
	}
	for parent, kids := range plan.Tree.Children {
		for _, k := range kids {
			if err := net.ConnectBrokers(parent, k); err != nil {
				return nil, err
			}
		}
	}
	place := func(p workload.PublisherDef) string {
		if b, ok := plan.Publishers[p.AdvID]; ok {
			return b
		}
		return plan.Tree.Root
	}
	placeSub := func(s workload.SubscriberDef) string {
		if b, ok := plan.Subscribers[s.Sub.ID]; ok {
			return b
		}
		return plan.Tree.Root
	}
	if err := attachClients(net, sc, place, placeSub); err != nil {
		return nil, err
	}
	return net, nil
}

// attachClients attaches and registers every publisher (advertise) and
// subscriber (subscribe) using the given placement functions.
// Advertisements go first so subscriptions route along them immediately.
func attachClients(net *Network, sc *workload.Scenario,
	placePub func(workload.PublisherDef) string,
	placeSub func(workload.SubscriberDef) string) error {
	for _, p := range sc.Publishers {
		if _, err := net.AttachClient(p.ClientID, placePub(p)); err != nil {
			return err
		}
		adv := p.Stock.Advertisement(p.AdvID, p.ClientID)
		if err := net.SendFromClient(p.ClientID, &message.Envelope{
			Kind: message.KindAdvertisement, Adv: adv,
		}); err != nil {
			return err
		}
	}
	for _, s := range sc.Subscribers {
		clientID := s.Sub.SubscriberID
		if _, err := net.AttachClient(clientID, placeSub(s)); err != nil {
			return err
		}
		if err := net.SendFromClient(clientID, &message.Envelope{
			Kind: message.KindSubscription, Sub: s.Sub,
		}); err != nil {
			return err
		}
	}
	return nil
}

// PublishRound replays a single publication round (every publisher sends
// its quote for the given sequence number) through a deployed network;
// exposed for throughput benchmarks.
func PublishRound(net *Network, sc *workload.Scenario, round int) error {
	return publishRounds(net, sc, round, 1, nil)
}

// publishRounds replays rounds of publications: in each round every
// publisher publishes one quote (sequence = round index) and the virtual
// clock advances by one publication interval.
func publishRounds(net *Network, sc *workload.Scenario, firstRound, rounds int,
	onRound func(round int)) error {
	for r := firstRound; r < firstRound+rounds; r++ {
		for i := range sc.Publishers {
			p := &sc.Publishers[i]
			pub := p.Stock.Publication(p.AdvID, r, r)
			if err := net.SendFromClient(p.ClientID, &message.Envelope{
				Kind: message.KindPublication, Pub: pub,
			}); err != nil {
				return err
			}
		}
		if len(sc.Publishers) > 0 {
			net.Advance(1 / sc.Publishers[0].Rate)
		}
		if onRound != nil {
			onRound(r)
		}
	}
	return nil
}

// profileTraffic replays the Phase-1 profiling traffic, which exists to
// fill the brokers' bit vectors. Its deliveries are counted
// (TotalDeliveries) but not logged on the clients: nothing reads that log,
// and at the paper's scale it is a million entries that keep every
// hop-count copy of a publication alive.
func profileTraffic(net *Network, sc *workload.Scenario, rounds int) error {
	prev := net.OnDelivery
	net.OnDelivery = func(Delivery) {}
	defer func() { net.OnDelivery = prev }()
	return publishRounds(net, sc, 0, rounds, nil)
}

// measure runs the measured phase on a deployed network and assembles the
// Result. firstRound continues the publication sequence space so bit
// vectors and dedup behave exactly as in a continuous run.
func measure(net *Network, sc *workload.Scenario, c ExperimentConfig,
	allocated []string, firstRound int,
	cramStats *allocation.CRAMStats, buildStats *overlaybuild.Stats,
	computeTime time.Duration) (*Result, error) {

	// Snapshot counters so deployment control traffic is excluded.
	base := make(map[string]broker.Counters, len(allocated))
	for _, id := range allocated {
		core := net.Broker(id)
		if core == nil {
			return nil, fmt.Errorf("sim: allocated broker %q not deployed", id)
		}
		base[id] = core.Counters()
	}
	var deliveries int
	var hopsSum, delaySum float64
	net.OnDelivery = func(d Delivery) {
		deliveries++
		hopsSum += float64(d.Hops)
		delaySum += d.Delay
	}
	defer func() { net.OnDelivery = nil }()

	if err := publishRounds(net, sc, firstRound, c.MeasureRounds, nil); err != nil {
		return nil, err
	}

	rate := sc.Publishers[0].Rate
	duration := float64(c.MeasureRounds) / rate
	res := &Result{
		Scenario:         sc.Name,
		Approach:         c.Approach,
		Subscriptions:    len(sc.Subscribers),
		AllocatedBrokers: len(allocated),
		Deliveries:       deliveries,
		ComputeTime:      computeTime,
		CRAMStats:        cramStats,
		BuildStats:       buildStats,
	}
	sort.Strings(allocated)
	for _, id := range allocated {
		cnt := net.Broker(id).Counters()
		b := base[id]
		msgs := float64(cnt.Total() - b.Total())
		outBytes := float64(cnt.BytesOut - b.BytesOut)
		stat := BrokerStat{
			ID:          id,
			MsgRate:     msgs / duration,
			Utilization: outBytes / duration / net.Broker(id).OutputBandwidth(),
		}
		res.Brokers = append(res.Brokers, stat)
		res.TotalMsgRate += stat.MsgRate
		res.AvgUtilization += stat.Utilization
	}
	if n := float64(len(allocated)); n > 0 {
		res.AvgBrokerMsgRate = res.TotalMsgRate / n
		res.AvgUtilization /= n
	}
	res.PoolBrokers = len(sc.Brokers)
	if res.PoolBrokers > 0 {
		res.AvgRatePerPoolBroker = res.TotalMsgRate / float64(res.PoolBrokers)
	}
	if deliveries > 0 {
		res.AvgHops = hopsSum / float64(deliveries)
		res.AvgDelayMs = delaySum / float64(deliveries) * 1000
	}
	return res, nil
}
