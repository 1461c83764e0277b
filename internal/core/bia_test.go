package core

import (
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/message"
)

// Two BIA frames a broker can put on the wire that name no subscription or
// no publisher statistics: message.Decode accepts both.
const (
	biaNullSub   = `{"kind":7,"bia":{"req":"r","infos":[{"id":"B1","url":"u","delay":{"per_sub":0.0001,"base":0.001},"out_bw":1000,"subs":[{"sub":null}]}]}}`
	biaNullStats = `{"kind":7,"bia":{"req":"r","infos":[{"id":"B1","url":"u","delay":{"per_sub":0.0001,"base":0.001},"out_bw":1000,"pubs":[{"adv":null,"stats":null}]}]}}`
)

// TestComputePlanRejectsNullBIAEntries: a decoded BIA whose subscription or
// publisher statistics are null is refused with an error naming the broker
// and the entry, not planned into a nil dereference.
func TestComputePlanRejectsNullBIAEntries(t *testing.T) {
	for _, tc := range []struct {
		name, frame, want string
	}{
		{"null subscription", biaNullSub, "subscription entry 0"},
		{"null publisher statistics", biaNullStats, "publisher entry 0"},
		{"both", `{"kind":7,"bia":{"req":"r","infos":[{"id":"B1","url":"u","delay":{"per_sub":0.0001,"base":0.001},"out_bw":1000,"subs":[{"sub":null}],"pubs":[{"adv":null,"stats":null}]}]}}`, "entry 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, err := message.Decode([]byte(tc.frame))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			for _, alg := range Algorithms() {
				_, err := ComputePlan(env.BIA.Infos, Config{Algorithm: alg, ProfileCapacity: 64})
				if err == nil {
					t.Fatalf("%s planned a BIA with a null entry", alg)
				}
				if !strings.Contains(err.Error(), `"B1"`) || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: error %q does not name broker \"B1\" and %s", alg, err, tc.want)
				}
			}
		})
	}
}

// FuzzBIAPlan feeds arbitrary frames through message.Decode and every BIA
// that decodes through ComputePlan under BIN PACKING and CRAM-IOS at the
// capacity its profiles carry: the planner must return an error or a plan
// whose tree validates, and must not panic. Among the seeds, a two-broker
// BIA at 640 bits must plan, and one whose profiles have 64 and 128 bits and
// one whose publisher reports a negative rate must be refused, the latter
// with an error naming the publisher.
func FuzzBIAPlan(f *testing.F) {
	frame := func(infos []message.BrokerInfo) []byte {
		data, err := message.Encode(&message.Envelope{Kind: message.KindBIA,
			BIA: &message.BIA{RequestID: "r", Infos: infos}})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	mixed := buildInfosAt(64, 2, 1, 2)
	mixed[1].Subscriptions[0].Profile = buildInfosAt(128, 2, 1, 2)[1].Subscriptions[0].Profile
	negative := buildInfosAt(64, 2, 1, 2)
	negative[0].Publishers[0].Stats.Rate = -1
	seeds := []struct {
		data  []byte
		plans bool
		names string // what a refusal must name, if anything
	}{
		{frame(buildInfosAt(64, 2, 1, 1)), true, ""},
		{frame(buildInfosAt(640, 2, 1, 2)), true, ""},
		{frame(mixed), false, ""},
		{[]byte(biaNullSub), false, ""},
		{[]byte(biaNullStats), false, ""},
		{frame(negative), false, `publisher "ADV0"`},
	}
	plan := func(data []byte, alg string) (p *Plan, decoded bool, err error) {
		env, err := message.Decode(data)
		if err != nil || env.Kind != message.KindBIA {
			return nil, false, nil
		}
		p, err = ComputePlan(env.BIA.Infos, Config{Algorithm: alg})
		return p, true, err
	}
	for i, sd := range seeds {
		for _, alg := range []string{AlgBinPacking, AlgCRAMIOS} {
			if _, ok, err := plan(sd.data, alg); !ok || (err == nil) != sd.plans {
				f.Fatalf("seed %d, %s: decoded %v, plan error %v; want a plan: %v", i, alg, ok, err, sd.plans)
			} else if err != nil && !strings.Contains(err.Error(), sd.names) {
				f.Fatalf("seed %d, %s: plan error %q does not name %s", i, alg, err, sd.names)
			}
		}
		f.Add(sd.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, alg := range []string{AlgBinPacking, AlgCRAMIOS} {
			p, ok, err := plan(data, alg)
			if !ok || err != nil {
				continue
			}
			if err := p.Tree.Validate(); err != nil {
				t.Fatalf("%s: plan tree does not validate: %v", alg, err)
			}
		}
	})
}
