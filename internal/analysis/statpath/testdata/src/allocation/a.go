// Fixture for the statpath analyzer, loaded as "fixture/allocation" so
// the stat-owner rules apply: counter writes in plain method bodies pass,
// writes inside function literals or go statements are flagged.
package allocation

// CRAMStats mirrors the real counter struct; statpath matches writes by
// the receiver type name and field names.
type CRAMStats struct {
	ClosenessComputations int
	CoverComputations     int
	PackAttempts          int
}

type run struct{ stats CRAMStats }

// serial tallies on the canonical path: a plain method body.
func (r *run) serial() {
	r.stats.ClosenessComputations++
	r.stats.PackAttempts += 2
}

// closure returns a callback; a tally inside it would run whenever and as
// often as the caller pleases, possibly concurrently, so it is rejected.
func (r *run) closure() func() {
	return func() {
		r.stats.CoverComputations++ // want "inside a function literal/goroutine"
	}
}

// spawn tallies on a worker goroutine, racing the canonical path.
func (r *run) spawn() {
	done := make(chan struct{})
	go func() {
		r.stats.PackAttempts++ // want "inside a function literal/goroutine"
		close(done)
	}()
	<-done
}

// reads of the counters are unrestricted everywhere.
func (r *run) report() int {
	return r.stats.ClosenessComputations + r.stats.PackAttempts
}
