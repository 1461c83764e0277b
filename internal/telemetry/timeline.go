package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/greenps/greenps/internal/metrics"
)

// Span is one named phase on a Timeline.
type Span struct {
	Name     string
	Start    time.Time
	Duration time.Duration
}

// End returns the span's end time.
func (s Span) End() time.Time { return s.Start.Add(s.Duration) }

// Timeline records named coarse-phase spans — the reconfiguration
// pipeline's gather/plan/apply breakdown — against an injected clock.
// It is safe for concurrent use; spans render in insertion order, which
// callers keep chronological by recording phases as they run. All
// methods no-op on a nil receiver, so an un-instrumented call path pays
// a single nil check.
type Timeline struct {
	name  string
	clock func() time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTimeline creates a timeline. The clock is injected (pass time.Now
// at the live entry points, a virtual clock in tests); it must be
// non-nil.
func NewTimeline(name string, clock func() time.Time) *Timeline {
	if clock == nil {
		panic("telemetry: NewTimeline requires a clock")
	}
	return &Timeline{name: name, clock: clock}
}

// StartSpan opens a span at the current clock reading and returns the
// function that closes it. On a nil Timeline the returned closer is a
// no-op.
func (t *Timeline) StartSpan(name string) func() {
	if t == nil {
		return func() {}
	}
	start := t.clock()
	return func() {
		t.Add(name, start, t.clock().Sub(start))
	}
}

// Add records a completed span directly (used when the duration was
// measured elsewhere, e.g. the planner's injected-clock phase timings).
func (t *Timeline) Add(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start, Duration: d})
	t.mu.Unlock()
}

// Now reads the timeline's injected clock, for callers that lay out
// derived spans (see Add) against the same time base.
func (t *Timeline) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.clock()
}

// Spans returns a copy of the recorded spans in insertion order.
func (t *Timeline) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// bounds returns the earliest start and latest end across spans.
func bounds(spans []Span) (time.Time, time.Time) {
	t0, t1 := spans[0].Start, spans[0].End()
	for _, s := range spans[1:] {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
		if s.End().After(t1) {
			t1 = s.End()
		}
	}
	return t0, t1
}

// Render writes the human-readable timeline: one line per span with its
// offset from the first span's start and its duration.
func (t *Timeline) Render(w io.Writer) error {
	spans := t.Spans()
	name := "timeline"
	if t != nil && t.name != "" {
		name = t.name
	}
	if len(spans) == 0 {
		_, err := fmt.Fprintf(w, "%s: no spans recorded\n", name)
		return err
	}
	t0, t1 := bounds(spans)
	if _, err := fmt.Fprintf(w, "%s: %d phase(s), total %s\n",
		name, len(spans), metrics.Dur(t1.Sub(t0))); err != nil {
		return err
	}
	nameWidth := 0
	for _, s := range spans {
		if len(s.Name) > nameWidth {
			nameWidth = len(s.Name)
		}
	}
	for _, s := range spans {
		if _, err := fmt.Fprintf(w, "  +%-9s %-*s %s\n",
			metrics.Dur(s.Start.Sub(t0)), nameWidth, s.Name, metrics.Dur(s.Duration)); err != nil {
			return err
		}
	}
	return nil
}
