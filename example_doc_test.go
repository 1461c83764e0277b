package greenps_test

import (
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"github.com/greenps/greenps"
)

// ExampleStartBroker shows a minimal one-broker deployment with a
// threshold subscriber and a stock publisher.
func ExampleStartBroker() {
	b, err := greenps.StartBroker(greenps.BrokerOptions{ID: "B1"})
	if err != nil {
		panic(err)
	}
	defer b.Stop()

	sub, err := greenps.Connect("watcher", b.Addr())
	if err != nil {
		panic(err)
	}
	defer sub.Close()
	if _, err := sub.Subscribe("[class,=,'STOCK'],[symbol,=,'YHOO'],[low,<,19]"); err != nil {
		panic(err)
	}

	pub, err := greenps.Connect("ticker", b.Addr())
	if err != nil {
		panic(err)
	}
	defer pub.Close()
	advID, err := pub.Advertise("[class,=,'STOCK'],[symbol,=,'YHOO']")
	if err != nil {
		panic(err)
	}
	// Subscribe returns once the request is sent, and the two clients'
	// connections are not ordered with each other, so the broker may match
	// a publication before it has installed the subscription. Publish until
	// the first delivery arrives.
	deliveries := sub.Deliveries()
	deadline := time.After(5 * time.Second)
	for {
		if err := pub.Publish(advID, map[string]any{
			"class": "STOCK", "symbol": "YHOO", "low": 18.4,
		}); err != nil {
			panic(err)
		}
		select {
		case d := <-deliveries:
			fmt.Println(d.Attrs["low"])
			return
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			panic("no delivery within 5s")
		}
	}
	// Output: 18.4
}

// TestExampleStartBrokerDelivers runs ExampleStartBroker 100 times, each
// under its own deadline, and requires its one line of output every time:
// the example's subscriber and publisher race on separate connections,
// and a lost race used to leave it blocked until the package timeout.
func TestExampleStartBrokerDelivers(t *testing.T) {
	stdout := os.Stdout
	defer func() { os.Stdout = stdout }()
	for i := 0; i < 100; i++ {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		printed := make(chan string, 1)
		go func() {
			b, _ := io.ReadAll(r)
			printed <- string(b)
		}()
		done := make(chan struct{})
		go func() {
			defer close(done)
			ExampleStartBroker()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: no delivery within 10s", i)
		}
		w.Close()
		if got := <-printed; got != "18.4\n" {
			t.Fatalf("iteration %d printed %q, want %q", i, got, "18.4\n")
		}
	}
}

// ExampleReconfigure runs the paper's three-phase pipeline against a live
// overlay and reports the consolidated broker count.
func ExampleReconfigure() {
	b, err := greenps.StartBroker(greenps.BrokerOptions{ID: "B1"})
	if err != nil {
		panic(err)
	}
	defer b.Stop()
	c, err := greenps.Connect("client", b.Addr())
	if err != nil {
		panic(err)
	}
	defer c.Close()
	if _, err := c.Subscribe("[class,=,'STOCK']"); err != nil {
		panic(err)
	}
	time.Sleep(200 * time.Millisecond)

	plan, err := greenps.Reconfigure(b.Addr(), "CRAM-IOS", 10*time.Second)
	if err != nil {
		panic(err)
	}
	fmt.Println(plan.Algorithm, plan.Brokers)
	// Output: CRAM-IOS 1
}
