package greenps_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/greenps/greenps"
)

// TestDeploymentReconfigureAndApply exercises the paper's full loop through
// the public API: a live fleet, traffic, consolidation, and uninterrupted
// delivery channels.
func TestDeploymentReconfigureAndApply(t *testing.T) {
	dp := greenps.NewDeployment()
	defer dp.Close()
	for i := 0; i < 3; i++ {
		if err := dp.StartBroker(greenps.BrokerOptions{
			ID:                  fmt.Sprintf("B%d", i),
			OutputBandwidth:     1 << 20,
			MatchingDelayPerSub: 0.0001,
			MatchingDelayBase:   0.001,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dp.Link("B0", "B1"); err != nil {
		t.Fatal(err)
	}
	if err := dp.Link("B1", "B2"); err != nil {
		t.Fatal(err)
	}
	_, ch, err := dp.AddSubscriber("watcher", "B2", "[class,=,'STOCK'],[symbol,=,'YHOO']")
	if err != nil {
		t.Fatal(err)
	}
	advID, err := dp.AddPublisher("ticker", "B0", "[class,=,'STOCK'],[symbol,=,'YHOO']")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)

	publish := func(seq int) {
		t.Helper()
		if err := dp.Publish(advID, map[string]any{
			"class": "STOCK", "symbol": "YHOO", "low": float64(seq),
		}); err != nil {
			t.Fatal(err)
		}
		select {
		case d := <-ch:
			if d.Attrs["low"] != float64(seq) {
				t.Fatalf("delivery low = %v, want %d", d.Attrs["low"], seq)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("publication %d lost", seq)
		}
	}
	for seq := 0; seq < 10; seq++ {
		publish(seq)
	}

	plan, err := dp.ReconfigureAndApply("CRAM-IOS", 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Brokers != 1 {
		t.Fatalf("consolidated to %d brokers, want 1", plan.Brokers)
	}
	if got := len(dp.Brokers()); got != 1 {
		t.Fatalf("%d brokers running after apply", got)
	}
	time.Sleep(400 * time.Millisecond)
	// Same channel keeps delivering on the consolidated system.
	for seq := 10; seq < 14; seq++ {
		publish(seq)
	}
}

// TestDeploymentPublishConcurrent publishes from four goroutines under one
// publisher: every publication arrives, and each gets its own sequence
// number. Under -race it also pins that Publish's counter is guarded.
func TestDeploymentPublishConcurrent(t *testing.T) {
	const goroutines, each = 4, 50
	dp := greenps.NewDeployment()
	defer dp.Close()
	if err := dp.StartBroker(greenps.BrokerOptions{ID: "B0"}); err != nil {
		t.Fatal(err)
	}
	_, ch, err := dp.AddSubscriber("watcher", "B0", "[class,=,'STOCK']")
	if err != nil {
		t.Fatal(err)
	}
	advID, err := dp.AddPublisher("ticker", "B0", "[class,=,'STOCK']")
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe is fire-and-forget: a probe publisher publishes until its
	// first delivery shows the subscription is in place.
	probeID, err := dp.AddPublisher("probe", "B0", "[class,=,'STOCK']")
	if err != nil {
		t.Fatal(err)
	}
	for probed := false; !probed; {
		if err := dp.Publish(probeID, map[string]any{"class": "STOCK"}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ch:
			probed = true
		case <-time.After(50 * time.Millisecond):
		}
	}

	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := dp.Publish(advID, map[string]any{"class": "STOCK"}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for len(seen) < goroutines*each {
		select {
		case d := <-ch:
			if d.PublisherID != advID {
				continue // a late probe publication
			}
			if d.Seq < 0 || d.Seq >= goroutines*each || seen[d.Seq] {
				t.Fatalf("delivery with Seq %d: out of range or repeated (%d seen)", d.Seq, len(seen))
			}
			seen[d.Seq] = true
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d publications delivered", len(seen), goroutines*each)
		}
	}
}

func TestDeploymentValidation(t *testing.T) {
	dp := greenps.NewDeployment()
	defer dp.Close()
	if _, err := dp.ReconfigureAndApply("CRAM-IOS", time.Second); err == nil {
		t.Fatal("reconfigure with no brokers accepted")
	}
	if err := dp.StartBroker(greenps.BrokerOptions{ID: "B0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := dp.AddPublisher("p", "B0", "[broken"); err == nil {
		t.Fatal("bad advertisement filter accepted")
	}
	if _, _, err := dp.AddSubscriber("s", "B0", "[broken"); err == nil {
		t.Fatal("bad subscription filter accepted")
	}
	if _, err := dp.AddPublisher("p", "B9", "[a,=,1]"); err == nil {
		t.Fatal("unknown broker accepted")
	}
	advID, err := dp.AddPublisher("p", "B0", "[a,=,1]")
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.Publish(advID, map[string]any{"bad": struct{}{}}); err == nil {
		t.Fatal("unsupported attribute accepted")
	}
}
