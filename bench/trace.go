package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval of a traced pass. Spans of one pass share
// Run; Parent is the ID of the span that caused this one (0 for the
// pass's root). Times are nanoseconds since the pass began. A layer's
// self time is its span's duration minus what its children cover.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out, if at all, when
// the pass has ended. The untraced pass carries a nil tracer, on which
// every method is a no-op, so the measured path holds no tracing code
// beyond a nil check at phase boundaries.
type tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string, seed int64, epoch time.Time) *tracer {
	return &tracer{
		run:   fmt.Sprintf("%s-seed%d-%x", workload, seed, epoch.UnixNano()),
		epoch: epoch,
	}
}

// start opens a span under parent and returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, StartNs: now, EndNs: -1})
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = now
}

// add records a span whose interval was measured elsewhere (the
// planner's PhaseTimes, sampled off the clock the benchmark injects).
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, StartNs: s, EndNs: s + d.Nanoseconds()})
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	t.mu.Lock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
