package sim

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"testing"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/workload"
)

// roundByRound is the profiling replay Prepare ran before it went
// publisher by publisher: in each round every publisher's quote, then one
// clock step.
func roundByRound(net *Network, sc *workload.Scenario, rounds int) error {
	for r := 0; r < rounds; r++ {
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
	}
	return nil
}

// prepareWith is Prepare with the given replay as its profiling phase.
func prepareWith(t testing.TB, sc *workload.Scenario, capacity int, replay func(*Network) error) profiling {
	t.Helper()
	net, err := deployManual(sc, capacity, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay(net); err != nil {
		t.Fatal(err)
	}
	infos, err := GatherInfos(net, sc.Brokers[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	return profiled(t, net, infos)
}

// profiling is what a profiled network shows the order tests: the sha256
// of its gathered infos' JSON, every broker's counters and the clock.
type profiling struct {
	infos    [sha256.Size]byte
	counters map[string]broker.Counters
	clock    float64
}

// profiled takes what the order tests compare of a profiled network.
func profiled(t testing.TB, net *Network, infos []message.BrokerInfo) profiling {
	t.Helper()
	js, err := json.Marshal(infos)
	if err != nil {
		t.Fatal(err)
	}
	p := profiling{infos: sha256.Sum256(js), counters: make(map[string]broker.Counters), clock: net.Now()}
	for _, id := range net.Brokers() {
		p.counters[id] = net.Broker(id).Counters()
	}
	return p
}

// sameProfiling fails unless two profiled networks gathered byte-identical
// infos, hold equal counters on every broker and read the same clock.
func sameProfiling(t testing.TB, want, got profiling) {
	t.Helper()
	if got.infos != want.infos {
		t.Errorf("infos differ from the round-by-round replay's (sha256 %x vs %x)", got.infos[:8], want.infos[:8])
	}
	for id, wc := range want.counters {
		if gc := got.counters[id]; wc != gc {
			t.Errorf("broker %s: counters %+v, round by round %+v", id, gc, wc)
		}
	}
	if math.Float64bits(want.clock) != math.Float64bits(got.clock) {
		t.Errorf("clock reads %v, round by round %v", got.clock, want.clock)
	}
}

// TestProfilingOrderIsExact holds Prepare's publisher-by-publisher
// profiling replay to the round-by-round one: the same infos, byte for
// byte, the same counters on every broker and the same clock, on the
// golden scenario, a heterogeneous one and one whose windows slide.
func TestProfilingOrderIsExact(t *testing.T) {
	golden := func(seed int64) workload.Options {
		o := workload.Defaults()
		o.Brokers, o.Publishers, o.SubsPerPublisher, o.Seed = 20, 10, 40, seed
		return o
	}
	hetero := smallOpts()
	hetero.Heterogeneous = true
	hetero.SubsPerPublisher = 40
	cases := []struct {
		name              string
		opts              workload.Options
		rounds, capacity  int
		wantSlidingWindow bool
	}{
		{"golden-seed1", golden(1), 200, profileCapacity, false},
		{"golden-seed7", golden(7), 200, profileCapacity, false},
		{"heterogeneous", hetero, 80, profileCapacity, false},
		{"sliding", smallOpts(), 300, 128, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := workload.Build(tc.name, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			got, gotInfos, err := Prepare(sc, tc.rounds, tc.capacity)
			if err != nil {
				t.Fatal(err)
			}
			want := prepareWith(t, sc, tc.capacity, func(net *Network) error {
				return roundByRound(net, sc, tc.rounds)
			})
			sameProfiling(t, want, profiled(t, got, gotInfos))
			if slid := slidWindows(sc, gotInfos, tc.rounds, tc.capacity); (slid > 0) != tc.wantSlidingWindow {
				t.Errorf("%d vectors slid their window, want sliding %v", slid, tc.wantSlidingWindow)
			}
		})
	}
}

// slidWindows counts the profile vectors whose window is full and ends on
// the last round: their first ID has moved off zero.
func slidWindows(sc *workload.Scenario, infos []message.BrokerInfo, rounds, capacity int) int {
	if rounds <= capacity {
		return 0
	}
	n := 0
	for _, bi := range infos {
		for _, si := range bi.Subscriptions {
			for i := range sc.Publishers {
				v := si.Profile.Vector(sc.Publishers[i].AdvID)
				if v != nil && v.Window() == capacity && v.Get(rounds-1) {
					n++
				}
			}
		}
	}
	return n
}

// mergeOrder decodes a merge of the publishers' round sequences into the
// publisher of each send. Each pair of bytes names one of the publishers
// with rounds left (by its index among them, modulo their number) and how
// many of its next rounds to send (0: all it has left); once the pairs run
// out, the rest goes round robin.
func mergeOrder(data []byte, publishers, rounds int) []int {
	left := make([]int, publishers)
	for i := range left {
		left[i] = rounds
	}
	order := make([]int, 0, publishers*rounds)
	var open []int
	for ; len(data) >= 2 && len(order) < cap(order); data = data[2:] {
		open = open[:0]
		for p, n := range left {
			if n > 0 {
				open = append(open, p)
			}
		}
		p := open[int(data[0])%len(open)]
		run := int(data[1])
		if run == 0 || run > left[p] {
			run = left[p]
		}
		for range run {
			order = append(order, p)
		}
		left[p] -= run
	}
	for len(order) < cap(order) {
		for p := range left {
			if left[p] > 0 {
				order = append(order, p)
				left[p]--
			}
		}
	}
	return order
}

// FuzzProfilingOrder replays the profiling rounds on smallOpts' deployment
// in any merge of the publishers' per-publisher sequences, then advances
// the clock as Prepare does, and holds the result to the round-by-round
// replay. The first byte picks a window of 64–256 bits, the second the
// number of rounds (up to 319, so windows slide), the rest the merge
// (mergeOrder). The committed seeds are the round-by-round merge, the
// publisher-by-publisher one and the publishers in reverse. The reference
// depends on the window and the number of rounds alone, so each fuzzing
// process replays it once per pair.
func FuzzProfilingOrder(f *testing.F) {
	sc, err := workload.Build("small", smallOpts())
	if err != nil {
		f.Fatal(err)
	}
	type shape struct{ capacity, rounds int }
	refs := make(map[shape]profiling)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := 64 + int(data[0])%193
		rounds := 1 + int(data[1])*5/4
		order := mergeOrder(data[2:], len(sc.Publishers), rounds)
		got := prepareWith(t, sc, capacity, func(net *Network) error {
			next := make([]int, len(sc.Publishers))
			for _, p := range order {
				if err := publish(net, &sc.Publishers[p], next[p]); err != nil {
					return err
				}
				next[p]++
			}
			advanceRounds(net, sc, rounds)
			return nil
		})
		want, ok := refs[shape{capacity, rounds}]
		if !ok {
			want = prepareWith(t, sc, capacity, func(net *Network) error {
				return roundByRound(net, sc, rounds)
			})
			refs[shape{capacity, rounds}] = want
		}
		sameProfiling(t, want, got)
	})
}
