package sim

import (
	"testing"

	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/workload"
)

func BenchmarkCRAMPlan4000(b *testing.B) {
	o := workload.Defaults()
	o.SubsPerPublisher = 100
	sc, err := workload.Build("prof", o)
	if err != nil {
		b.Fatal(err)
	}
	net, err := deployManual(sc, 1280, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := publishRounds(net, sc, 0, 200); err != nil {
		b.Fatal(err)
	}
	infos, err := GatherInfos(net, sc.Brokers[0].ID)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ComputePlan(infos, core.Config{Algorithm: "CRAM-IOS", ProfileCapacity: 1280}); err != nil {
			b.Fatal(err)
		}
	}
}
