// Stockmonitor: the paper's motivating workload as a live deployment — a
// five-broker overlay carrying real-time stock quotes for several symbols,
// with a mix of full-feed and threshold subscribers (the 40%/60% template
// mix of Section VI-A), followed by a comparison of every reconfiguration
// algorithm's plan for the same live system.
//
// Run with:
//
//	go run ./examples/stockmonitor
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/greenps/greenps"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

const quotesPerSymbol = 40

func run() error {
	// A fan-out-2 tree of five throttled brokers.
	var brokers []*greenps.Broker
	for i := 0; i < 5; i++ {
		b, err := greenps.StartBroker(greenps.BrokerOptions{
			ID:                  fmt.Sprintf("B%d", i),
			OutputBandwidth:     512 << 10,
			MatchingDelayPerSub: 0.0001,
			MatchingDelayBase:   0.001,
		})
		if err != nil {
			return err
		}
		defer b.Stop()
		brokers = append(brokers, b)
	}
	for i := 1; i < 5; i++ {
		if err := brokers[(i-1)/2].ConnectNeighbor(brokers[i].Addr()); err != nil {
			return err
		}
	}
	fmt.Printf("overlay up: 5 brokers, fan-out-2 tree rooted at %s\n", brokers[0].ID())

	symbols := []string{"YHOO", "GOOG", "IBM"}
	rng := rand.New(rand.NewSource(7))

	// Subscribers: per symbol, one full feed and two threshold watchers
	// scattered across the overlay.
	var delivered atomic.Int64
	var clients []*greenps.Client
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()
	watch := func(c *greenps.Client, label string) {
		ch := c.Deliveries()
		go func() {
			for d := range ch {
				delivered.Add(1)
				if delivered.Load() <= 5 { // print a few, then just count
					fmt.Printf("  %s got %s seq=%d close=%.2f (hops %d)\n",
						label, d.PublisherID, d.Seq, d.Attrs["close"], d.Hops)
				}
			}
		}()
	}
	for si, sym := range symbols {
		full, err := greenps.Connect("monitor-"+sym, brokers[si%5].Addr())
		if err != nil {
			return err
		}
		clients = append(clients, full)
		if _, err := full.Subscribe(fmt.Sprintf("[class,=,'STOCK'],[symbol,=,'%s']", sym)); err != nil {
			return err
		}
		watch(full, "monitor-"+sym)
		for w := 0; w < 2; w++ {
			threshold := 80 + rng.Float64()*40
			cl, err := greenps.Connect(fmt.Sprintf("alert-%s-%d", sym, w), brokers[(si+w+1)%5].Addr())
			if err != nil {
				return err
			}
			clients = append(clients, cl)
			if _, err := cl.Subscribe(fmt.Sprintf(
				"[class,=,'STOCK'],[symbol,=,'%s'],[low,<,%.2f]", sym, threshold)); err != nil {
				return err
			}
			watch(cl, fmt.Sprintf("alert-%s-%d", sym, w))
		}
	}

	// Publishers: one per symbol, random-walk quotes.
	type pubState struct {
		c     *greenps.Client
		advID string
		price float64
	}
	var pubs []*pubState
	for si, sym := range symbols {
		c, err := greenps.Connect("pub-"+sym, brokers[(si+2)%5].Addr())
		if err != nil {
			return err
		}
		clients = append(clients, c)
		advID, err := c.Advertise(fmt.Sprintf("[class,=,'STOCK'],[symbol,=,'%s']", sym))
		if err != nil {
			return err
		}
		pubs = append(pubs, &pubState{c: c, advID: advID, price: 90 + rng.Float64()*30})
	}
	time.Sleep(500 * time.Millisecond) // let routing state settle

	fmt.Printf("publishing %d quotes per symbol...\n", quotesPerSymbol)
	for day := 0; day < quotesPerSymbol; day++ {
		for si, p := range pubs {
			open := p.price
			p.price *= math.Exp(0.01 * rng.NormFloat64())
			low := math.Min(open, p.price) * 0.995
			if err := p.c.Publish(p.advID, map[string]any{
				"class":  "STOCK",
				"symbol": symbols[si],
				"open":   math.Round(open*100) / 100,
				"high":   math.Round(math.Max(open, p.price)*100.5) / 100,
				"low":    math.Round(low*100) / 100,
				"close":  math.Round(p.price*100) / 100,
				"volume": float64(1000 + rng.Intn(9000)),
			}); err != nil {
				return err
			}
		}
	}
	time.Sleep(time.Second)
	fmt.Printf("delivered %d publications across %d subscribers\n\n",
		delivered.Load(), 3*len(symbols))

	// Ask CROC to plan a consolidation with each algorithm; it refuses a
	// plan that overloads a broker, as PAIRWISE-K/N's may.
	fmt.Println("reconfiguration plans for the live overlay:")
	for _, alg := range greenps.Algorithms() {
		plan, err := greenps.Reconfigure(brokers[0].Addr(), alg, 15*time.Second)
		if err != nil {
			fmt.Printf("  %-15s -> refused: %v\n", alg, err)
			continue
		}
		fmt.Printf("  %-15s -> %d broker(s), root %s (%v)\n",
			alg, plan.Brokers, plan.Root, plan.ComputeTime.Round(time.Millisecond))
	}
	return nil
}
