// Fixture for detflow's telemetry rule, loaded as "fixture/telemetry":
// the telemetry package must take its clocks as injected dependencies,
// so direct wall-clock references are flagged — while the deterministic
// core's other bans (global rand, core counts, racy selects) do not
// apply here.
package telemetry

import (
	"math/rand"
	"time"
)

// Span mirrors the real timeline span.
type Span struct {
	Name  string
	Start time.Time
}

// stamp reads the wall clock directly instead of using the injected
// clock.
func stamp(name string) Span {
	return Span{Name: name, Start: time.Now()} // want "reference to time.Now"
}

// defaultClock smuggles the wall clock in as a stored function value.
var defaultClock = time.Now // want "reference to time.Now"

// age derives elapsed time from the wall clock.
func age(s Span) time.Duration {
	return time.Since(s.Start) // want "reference to time.Since"
}

// injected is the supported pattern: the caller supplies the clock.
func injected(name string, clock func() time.Time) Span {
	return Span{Name: name, Start: clock()}
}

// justified sites may keep a wall-clock read with a reason.
func justified() time.Time {
	//greenvet:detflow-ok scrape timestamp only; never read back by any instrument
	return time.Now()
}

// jitter may use global rand: telemetry is not plan-producing, so the
// deterministic core's rand ban does not apply.
func jitter() int {
	return rand.Intn(10)
}

// fanIn may race selects: delivery order of scrapes is unobservable to
// the plan.
func fanIn(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}
