package telemetry_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/greenps/greenps/internal/telemetry"
)

// fakeClock is a deterministic manual clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestTimelineSpansOnVirtualClock(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	tl := telemetry.NewTimeline("reconfiguration", clk.Now)
	end := tl.StartSpan("gather")
	clk.Advance(400 * time.Millisecond)
	end()
	end = tl.StartSpan("plan")
	clk.Advance(100 * time.Millisecond)
	end()
	tl.Add("apply", clk.Now(), 250*time.Millisecond)

	spans := tl.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if spans[0].Name != "gather" || spans[0].Duration != 400*time.Millisecond {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[1].Start.Sub(spans[0].Start) != 400*time.Millisecond {
		t.Fatalf("plan offset = %v", spans[1].Start.Sub(spans[0].Start))
	}

	var buf bytes.Buffer
	if err := tl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"reconfiguration: 3 phase(s), total 750ms",
		"gather",
		"400ms",
		"+500ms",
		"apply",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestNilTimelineNoOps(t *testing.T) {
	var tl *telemetry.Timeline
	end := tl.StartSpan("x")
	end()
	tl.Add("y", time.Time{}, time.Second)
	if tl.Spans() != nil {
		t.Fatal("nil timeline must report no spans")
	}
	if !tl.Now().IsZero() {
		t.Fatal("nil timeline clock must read zero")
	}
}

func TestTimelineRenderEmpty(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	tl := telemetry.NewTimeline("idle", clk.Now)
	var buf bytes.Buffer
	if err := tl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no spans recorded") {
		t.Fatalf("empty render: %q", buf.String())
	}
}

func TestTimelineConcurrentSpans(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	tl := telemetry.NewTimeline("par", clk.Now)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				end := tl.StartSpan("work")
				clk.Advance(time.Microsecond)
				end()
			}
		}()
	}
	wg.Wait()
	if got := len(tl.Spans()); got != 1600 {
		t.Fatalf("%d spans, want 1600", got)
	}
}
