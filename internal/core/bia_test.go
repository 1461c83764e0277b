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
// that decodes through ComputePlan under BIN PACKING and CRAM-IOS at 64-bit
// profiles: the planner must return an error or a plan whose tree
// validates, and must not panic.
func FuzzBIAPlan(f *testing.F) {
	valid, err := message.Encode(&message.Envelope{Kind: message.KindBIA,
		BIA: &message.BIA{RequestID: "r", Infos: buildInfosAt(64, 2, 1, 1)}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(biaNullSub))
	f.Add([]byte(biaNullStats))
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := message.Decode(data)
		if err != nil || env.Kind != message.KindBIA {
			return
		}
		for _, alg := range []string{AlgBinPacking, AlgCRAMIOS} {
			plan, err := ComputePlan(env.BIA.Infos, Config{Algorithm: alg, ProfileCapacity: 64})
			if err != nil {
				continue
			}
			if err := plan.Tree.Validate(); err != nil {
				t.Fatalf("%s: plan tree does not validate: %v", alg, err)
			}
		}
	})
}
