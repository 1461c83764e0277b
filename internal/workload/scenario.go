package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/greenps/greenps/internal/message"
)

// BrokerDef describes one broker in a scenario.
type BrokerDef struct {
	ID string
	// OutputBandwidth in bytes/s (throttled, as in the paper's testbed).
	OutputBandwidth float64
	// Delay is the broker's matching-delay model.
	Delay message.MatchingDelayFn
}

// PublisherDef describes one publisher in a scenario.
type PublisherDef struct {
	// ClientID names the publisher client.
	ClientID string
	// AdvID is the globally unique advertisement ID.
	AdvID string
	// Stock is the symbol's synthetic history.
	Stock *Stock
	// Rate is the publication rate in msgs/s (paper: 70 msg/min ≈ 1.167).
	Rate float64
	// HomeBroker is the broker the publisher initially attaches to in the
	// MANUAL deployment.
	HomeBroker string
}

// SubscriberDef describes one subscription and its owning client.
type SubscriberDef struct {
	Sub *message.Subscription
	// HomeBroker is the broker the subscriber initially attaches to in the
	// MANUAL deployment.
	HomeBroker string
}

// Scenario is a complete experiment configuration: brokers, publishers,
// subscriptions, and the MANUAL baseline's placements.
type Scenario struct {
	Name        string
	Brokers     []BrokerDef
	Publishers  []PublisherDef
	Subscribers []SubscriberDef
	// Tree lists the MANUAL overlay edges (parent, child) — a fan-out-2
	// tree per the paper's baseline.
	Tree [][2]string
}

// Options calibrates scenario generation. The defaults (via Defaults)
// mirror Section VI-A scaled to the paper's throttled-bandwidth regime.
type Options struct {
	// Brokers is the overlay size (paper: 80 cluster, 400/1000 SciNet).
	Brokers int
	// Publishers is the publisher count (paper: 40 cluster, 72/100 SciNet).
	Publishers int
	// SubsPerPublisher is the per-publisher subscription count
	// (paper: 50..200 cluster, 225 SciNet).
	SubsPerPublisher int
	// Heterogeneous applies the paper's capacity tiers: 15 brokers at
	// 100%, 25 at 50%, the rest at 25%, and Ns÷i subscriptions for
	// publisher i.
	Heterogeneous bool
	// PubRate is msgs/s per publisher (paper: 70 msg/min).
	PubRate float64
	// BaseBandwidth is the 100%-tier broker output bandwidth, bytes/s.
	// Brokers are deliberately throttled, as in the paper's testbed.
	BaseBandwidth float64
	// Delay is the brokers' matching-delay model.
	Delay message.MatchingDelayFn
	// Days is the length of each stock history.
	Days int
	// Seed seeds all generation.
	Seed int64
}

// Defaults returns the cluster-testbed calibration: 80 throttled brokers,
// 40 publishers at 70 msg/min. With 200 subscriptions per publisher the
// aggregate delivery bandwidth is ~2 MB/s, so the 300 kB/s broker throttle
// forces roughly 8 allocated brokers at full load — the ~90% reduction
// regime the paper reports.
func Defaults() Options {
	return Options{
		Brokers:          80,
		Publishers:       40,
		SubsPerPublisher: 100,
		PubRate:          70.0 / 60.0,
		BaseBandwidth:    300_000,
		Delay:            message.MatchingDelayFn{PerSub: 0.0001, Base: 0.001},
		Days:             400,
		Seed:             1,
	}
}

// Build generates the scenario. It rejects options no run can use: no
// broker or publisher, a negative subscription count, stock histories
// shorter than a day, and a publication rate that is not finite and
// positive.
func Build(name string, o Options) (*Scenario, error) {
	if o.Brokers < 1 || o.Publishers < 1 || o.SubsPerPublisher < 0 || o.Days < 1 ||
		!(o.PubRate > 0) || math.IsInf(o.PubRate, 1) {
		return nil, fmt.Errorf("workload: invalid options %+v", o)
	}
	rng := rand.New(rand.NewSource(o.Seed))
	sc := &Scenario{Name: name}

	// Brokers: homogeneous, or the paper's 15/25/rest capacity tiers.
	for i := 0; i < o.Brokers; i++ {
		bw := o.BaseBandwidth
		if o.Heterogeneous {
			switch {
			case i < 15*o.Brokers/80:
				bw = o.BaseBandwidth
			case i < (15+25)*o.Brokers/80:
				bw = o.BaseBandwidth / 2
			default:
				bw = o.BaseBandwidth / 4
			}
		}
		sc.Brokers = append(sc.Brokers, BrokerDef{
			ID:              fmt.Sprintf("B%03d", i),
			OutputBandwidth: bw,
			Delay:           o.Delay,
		})
	}

	// MANUAL overlay: fan-out-2 tree (node i's children are 2i+1, 2i+2).
	// Under heterogeneity the most resourceful brokers sit at the top,
	// which the tier assignment above already guarantees (low indices =
	// high capacity).
	for i := 0; i < o.Brokers; i++ {
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < o.Brokers {
				sc.Tree = append(sc.Tree, [2]string{sc.Brokers[i].ID, sc.Brokers[c].ID})
			}
		}
	}

	// Publishers: one unique stock each, placed on random brokers.
	for p := 0; p < o.Publishers; p++ {
		symbol := fmt.Sprintf("SYM%03d", p)
		stock := GenerateStock(o.Seed, symbol, o.Days)
		sc.Publishers = append(sc.Publishers, PublisherDef{
			ClientID:   "pub-" + symbol,
			AdvID:      "ADV-" + symbol,
			Stock:      stock,
			Rate:       o.PubRate,
			HomeBroker: sc.Brokers[rng.Intn(o.Brokers)].ID,
		})
	}

	// Subscriptions: equal per publisher (homogeneous) or Ns÷i for the
	// i-th publisher (heterogeneous), placed per the MANUAL policy.
	placer := newManualPlacer(sc, rng, o)
	for p := range sc.Publishers {
		count := o.SubsPerPublisher
		if o.Heterogeneous {
			count = o.SubsPerPublisher / (p + 1)
			if count < 1 {
				count = 1
			}
		}
		subs := sc.Publishers[p].Stock.Subscriptions(o.Seed, "s-"+sc.Publishers[p].Stock.Symbol, count)
		for _, sub := range subs {
			sc.Subscribers = append(sc.Subscribers, SubscriberDef{
				Sub:        sub,
				HomeBroker: placer.place(),
			})
		}
	}
	return sc, nil
}

// manualPlacer implements the MANUAL baseline's subscriber placement:
// uniformly random under homogeneity; proportional to broker resource
// level under heterogeneity.
type manualPlacer struct {
	rng     *rand.Rand
	brokers []BrokerDef
	weights []float64
	total   float64
}

func newManualPlacer(sc *Scenario, rng *rand.Rand, o Options) *manualPlacer {
	p := &manualPlacer{rng: rng, brokers: sc.Brokers}
	for _, b := range sc.Brokers {
		w := 1.0
		if o.Heterogeneous {
			w = b.OutputBandwidth
		}
		p.weights = append(p.weights, w)
		p.total += w
	}
	return p
}

func (p *manualPlacer) place() string {
	x := p.rng.Float64() * p.total
	for i, w := range p.weights {
		x -= w
		if x <= 0 {
			return p.brokers[i].ID
		}
	}
	return p.brokers[len(p.brokers)-1].ID
}

// EveryBrokerSubscribed builds the adversarial workload of Section II-B:
// one publisher whose stream has at least one subscriber attached to every
// broker, so that publisher relocation alone cannot reduce the system
// message rate.
func EveryBrokerSubscribed(o Options) (*Scenario, error) {
	o.Publishers = 1
	saved := o.SubsPerPublisher
	o.SubsPerPublisher = 0
	sc, err := Build("every-broker-subscribed", o)
	if err != nil {
		return nil, err
	}
	stock := sc.Publishers[0].Stock
	count := saved
	if count < o.Brokers {
		count = o.Brokers
	}
	subs := stock.Subscriptions(o.Seed, "s-"+stock.Symbol, count)
	for i, sub := range subs {
		sc.Subscribers = append(sc.Subscribers, SubscriberDef{
			Sub:        sub,
			HomeBroker: sc.Brokers[i%o.Brokers].ID, // cover every broker
		})
	}
	return sc, nil
}
