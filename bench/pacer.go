package main

import (
	"sync/atomic"
	"time"
)

// clock is the time source the pacing code reads. The benchmark runs on
// the wall clock; the tests inject a virtual one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// pacer releases the ticks of an open loop on an absolute schedule: tick
// k is due at start + k*tick whatever happened to the ticks before it,
// so a stall makes the generator late but never slows the schedule.
// Every message of a tick is timed from the tick's due time, which
// charges the wait a stall imposes on later messages to the system
// instead of hiding it (per-message sleeps measured Go's timer slack,
// busy-waiting starved the brokers of one of the two cores; one sleep
// per 4 ms tick does neither).
type pacer struct {
	clk   clock
	start time.Time
	tick  time.Duration
	// late holds, per released tick, how long after its due time the
	// generator got to it.
	late []time.Duration
}

func newPacer(clk clock, tick time.Duration, ticks int) *pacer {
	return &pacer{clk: clk, start: clk.Now(), tick: tick, late: make([]time.Duration, 0, ticks)}
}

// due returns tick k's scheduled time.
func (p *pacer) due(k int) time.Time { return p.start.Add(time.Duration(k) * p.tick) }

// wait parks until tick k is due (returning at once when it already
// is), records the generator's lateness, and returns the due time.
func (p *pacer) wait(k int) time.Time {
	due := p.due(k)
	if d := due.Sub(p.clk.Now()); d > 0 {
		p.clk.Sleep(d)
	}
	p.late = append(p.late, p.clk.Now().Sub(due))
	return due
}

// window bounds the publications in flight in a closed loop. The
// generator calls acquire before each send; the receiver calls complete
// as publications finish. A full window parks the generator on a
// channel, it does not spin: the brokers need the core.
type window struct {
	limit  int64
	sent   int64 // generator-only
	done   atomic.Int64
	parked atomic.Bool
	// wake holds at most one pending wake-up; a second is redundant.
	wake chan struct{}
}

func newWindow(limit int) *window {
	return &window{limit: int64(limit), wake: make(chan struct{}, 1)}
}

// acquire takes one in-flight slot, parking while the window is full.
// It reports false when no slot came free within timeout or abort
// closed.
func (w *window) acquire(timeout time.Duration, abort <-chan struct{}) bool {
	if w.sent-w.done.Load() >= w.limit {
		if !w.waitDone(w.sent-w.limit+1, timeout, abort) {
			return false
		}
	}
	w.sent++
	return true
}

// waitDone parks until at least n publications have finished. It
// reports false when that did not happen within timeout or abort closed.
func (w *window) waitDone(n int64, timeout time.Duration, abort <-chan struct{}) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		// Publish the parked flag before reading done: complete stores
		// done before reading the flag, so one side always sees the
		// other and no wake-up is lost.
		w.parked.Store(true)
		if w.done.Load() >= n {
			w.parked.Store(false)
			return true
		}
		select {
		case <-w.wake:
		case <-abort:
			w.parked.Store(false)
			return false
		case <-timer.C:
			w.parked.Store(false)
			return false
		}
	}
}

// complete records that the first n publications have finished and wakes
// a parked generator.
func (w *window) complete(n int64) {
	w.done.Store(n)
	if w.parked.Load() {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}
