// Command topogen generates PANDA-style topology files for live
// deployments: the paper's cluster scenarios (homogeneous or
// heterogeneous fan-out-2 MANUAL trees with the stock-quote workload)
// rendered as a text file cmd/panda can deploy and cmd/croc can
// reconfigure.
//
// Usage:
//
//	topogen -brokers 20 -publishers 8 -subs 25 > cluster.topo
//	topogen -brokers 80 -publishers 40 -subs 100 -hetero -base-port 7100 > hetero.topo
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		brokers    = flag.Int("brokers", 20, "broker count")
		publishers = flag.Int("publishers", 8, "publisher count")
		subs       = flag.Int("subs", 25, "subscriptions per publisher (Ns)")
		hetero     = flag.Bool("hetero", false, "heterogeneous capacity tiers and Ns/i subscriptions")
		basePort   = flag.Int("base-port", 7001, "first broker TCP port")
		host       = flag.String("host", "127.0.0.1", "broker host")
		bw         = flag.Float64("bw", 300_000, "100%-tier output bandwidth, bytes/s")
		seed       = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()

	o := workload.Defaults()
	o.Brokers = *brokers
	o.Publishers = *publishers
	o.SubsPerPublisher = *subs
	o.Heterogeneous = *hetero
	o.BaseBandwidth = *bw
	o.Seed = *seed
	sc, err := workload.Build("topogen", o)
	if err != nil {
		return err
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	writeTopology(w, sc, *host, *basePort)
	return nil
}

// writeTopology renders the scenario as a topology file whose brokers
// listen on host from basePort up.
func writeTopology(w io.Writer, sc *workload.Scenario, host string, basePort int) {
	fmt.Fprintf(w, "# generated by topogen: %d brokers, %d publishers, %d subscriptions\n",
		len(sc.Brokers), len(sc.Publishers), len(sc.Subscribers))
	fmt.Fprintf(w, "# deploy with: panda -file <this file>; reconfigure with: croc -broker %s:%d\n\n",
		host, basePort)
	for i, b := range sc.Brokers {
		fmt.Fprintf(w, "broker %s addr=%s:%d bw=%.0f delay=%g,%g\n",
			b.ID, host, basePort+i, b.OutputBandwidth, b.Delay.PerSub, b.Delay.Base)
	}
	fmt.Fprintln(w)
	for _, e := range sc.Tree {
		fmt.Fprintf(w, "link %s %s\n", e[0], e[1])
	}
	fmt.Fprintln(w)
	for _, p := range sc.Publishers {
		fmt.Fprintf(w, "publisher %s broker=%s advid=%s adv=\"%s\"\n",
			p.ClientID, p.HomeBroker, p.AdvID,
			predString(p.Stock.Advertisement(p.AdvID, p.ClientID).Predicates))
	}
	fmt.Fprintln(w)
	for _, s := range sc.Subscribers {
		fmt.Fprintf(w, "subscriber %s broker=%s filter=\"%s\"\n",
			s.Sub.SubscriberID, s.HomeBroker, predString(s.Sub.Predicates))
	}
}

// predString renders predicates in the filter syntax topology.Parse reads.
func predString(preds []message.Predicate) string {
	var b strings.Builder
	for _, p := range preds {
		b.WriteString(p.String())
	}
	return b.String()
}
