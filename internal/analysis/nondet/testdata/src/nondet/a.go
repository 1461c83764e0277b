// Fixture for the nondet analyzer: wall-clock reads, global math/rand,
// core-count queries, crypto/rand, process and host identity, and racy
// selects are flagged; seeded generators and justified suppressions pass.
package nondet

import (
	crand "crypto/rand"
	"math/rand"
	"os"
	"runtime"
	"time"
)

// stamp reads the wall clock directly.
func stamp() time.Time {
	return time.Now() // want "reference to time.Now"
}

// clock smuggles the wall clock in as a function value; bare references
// are flagged the same as calls.
var clock = time.Now // want "reference to time.Now"

// stale computes an age from the wall clock.
func stale(t time.Time) time.Duration {
	return time.Since(t) // want "reference to time.Since"
}

// draw consumes the process-global math/rand state.
func draw() int {
	return rand.Intn(10) // want "reference to math/rand.Intn"
}

// width branches on the machine's core count.
func width() int {
	return runtime.NumCPU() // want "reference to runtime.NumCPU"
}

// nonce draws from the operating system's entropy pool.
func nonce(b []byte) {
	_, _ = crand.Read(b) // want "reference to crypto/rand.Read in deterministic package: crypto/rand read"
}

// identity keys on which process and which machine computed the plan.
func identity() (int, string) {
	host, _ := os.Hostname() // want "reference to os.Hostname in deterministic package: host-identity read"
	return os.Getpid(), host // want "reference to os.Getpid in deterministic package: process-identity read"
}

// seeded constructs an explicitly seeded generator — the supported way to
// plumb randomness through an options struct.
func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// telemetry is allowed to read the clock because the justification states
// the value never influences the plan.
func telemetry() time.Time {
	//greenvet:nondet-ok log timestamp only; the value never reaches the plan
	return time.Now()
}

// race lets the runtime pick whichever channel is ready.
func race(a, b chan int) int {
	select { // want "select with 2 communication cases"
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// poll has a single communication case; with default it cannot race.
func poll(a chan int) int {
	select {
	case v := <-a:
		return v
	default:
		return 0
	}
}
