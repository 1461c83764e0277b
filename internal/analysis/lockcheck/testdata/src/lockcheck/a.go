// Fixture for the lockcheck analyzer: locksets flow along every path, so
// a mutex held (on any path) at a blocking operation is reported, and
// opposite-order nested acquisitions anywhere in the package are paired
// up into an inversion report.
package lockcheck

import (
	"sync"
	"time"
)

var muA, muB sync.Mutex

type server struct {
	mu sync.RWMutex
	ch chan int
}

// sendWhileLocked blocks on a channel send with the lock held.
func sendWhileLocked(ch chan int) {
	muA.Lock()
	ch <- 1 // want `lockcheck.muA may be held \(acquired at line 21\) across channel send`
	muA.Unlock()
}

// recvAfterUnlock releases before blocking: clean.
func recvAfterUnlock(ch chan int) int {
	muA.Lock()
	muA.Unlock()
	return <-ch
}

// deferredUnlockHoldsToExit keeps the lock across the receive because the
// unlock is deferred to function exit.
func deferredUnlockHoldsToExit(ch chan int) int {
	muA.Lock()
	defer muA.Unlock()
	return <-ch // want `lockcheck.muA may be held \(acquired at line 36\) across channel receive`
}

// branchMayHold locks on only one path; the merge point still may-holds.
func branchMayHold(ch chan int, cond bool) {
	if cond {
		muA.Lock()
	}
	ch <- 1 // want `lockcheck.muA may be held \(acquired at line 44\) across channel send`
	if cond {
		muA.Unlock()
	}
}

// selectNoDefault blocks at the select itself.
func (s *server) selectNoDefault(done chan struct{}) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	select { // want `server.mu may be held \(acquired at line 54\) across select without default`
	case s.ch <- 1:
	case <-done:
	}
}

// selectWithDefault never blocks: clean.
func (s *server) selectWithDefault() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1:
	default:
	}
}

// joinWhileLocked blocks on a WaitGroup join with the lock held.
func joinWhileLocked(wg *sync.WaitGroup) {
	muB.Lock()
	defer muB.Unlock()
	wg.Wait() // want `lockcheck.muB may be held \(acquired at line 74\) across WaitGroup.Wait \(join\)`
}

// sleepWhileLocked stalls every contender for the sleep duration.
func sleepWhileLocked() {
	muB.Lock()
	time.Sleep(time.Millisecond) // want `lockcheck.muB may be held \(acquired at line 81\) across time.Sleep`
	muB.Unlock()
}

// onceReported: only the first blocking site per (lock, function) is
// diagnosed, so one suppression covers the function.
func onceReported(ch chan int) {
	muA.Lock()
	defer muA.Unlock()
	ch <- 1 // want `lockcheck.muA may be held \(acquired at line 89\) across channel send`
	ch <- 2
}

// suppressed documents why holding across the send is safe here.
func suppressed(ch chan int) {
	muA.Lock()
	defer muA.Unlock()
	//greenvet:lock-ok fixture: buffered channel sized to the worker count
	ch <- 1
}

// launchIsNotBlocking: a go statement returns immediately.
func launchIsNotBlocking(ch chan int) {
	muA.Lock()
	go func() { ch <- 1 }()
	muA.Unlock()
}

// rangeOverChannel blocks on every iteration's receive.
func rangeOverChannel(ch chan int) {
	muB.Lock()
	defer muB.Unlock()
	for range ch { // want `lockcheck.muB may be held \(acquired at line 112\) across range over channel`
	}
}

// orderAB and orderBA together form an acquisition-order inversion.
func orderAB() {
	muA.Lock()
	muB.Lock() // want `lockcheck.muB acquired while holding lockcheck.muA, but line 128 acquires them in the opposite order`
	muB.Unlock()
	muA.Unlock()
}

func orderBA() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}

// --- control shapes: each case pins how a lockset crosses one construct ---

// muC is taken by the control-shape cases only, never nested with another
// lock, so none of them adds an order edge.
var muC sync.Mutex

// earlyReturnKeepsLock: the arm that unlocks returns, so the lock is still
// held after the if.
func earlyReturnKeepsLock(ch chan int, dup bool) {
	muC.Lock()
	if dup {
		muC.Unlock()
		return
	}
	ch <- 1 // want `lockcheck.muC may be held \(acquired at line 142\) across channel send`
	muC.Unlock()
}

// backEdgeHolds: the lock taken at the end of one iteration is held at
// the next iteration's send.
func backEdgeHolds(ch chan int, n int) {
	for i := 0; i < n; i++ {
		ch <- i // want `lockcheck.muC may be held \(acquired at line 156\) across channel send`
		muC.Lock()
	}
}

// breakCarriesLock: the break leaves the loop with the lock held.
func breakCarriesLock(ch chan int, xs []int) {
	for _, x := range xs {
		muC.Lock()
		if x < 0 {
			break
		}
		muC.Unlock()
	}
	ch <- 1 // want `lockcheck.muC may be held \(acquired at line 163\) across channel send`
}

// continueCarriesLock: the continue takes the lock back to the loop head.
func continueCarriesLock(ch chan int, xs []int) {
	for _, x := range xs {
		ch <- x // want `lockcheck.muC may be held \(acquired at line 176\) across channel send`
		muC.Lock()
		if x < 0 {
			continue
		}
		muC.Unlock()
	}
}

// continueOuterCarriesLock: the labeled continue takes the inner loop's
// lock to the outer loop's head.
func continueOuterCarriesLock(ch chan int, rows [][]int) {
outer:
	for _, row := range rows {
		ch <- len(row) // want `lockcheck.muC may be held \(acquired at line 191\) across channel send`
		for _, x := range row {
			muC.Lock()
			if x < 0 {
				continue outer
			}
			muC.Unlock()
		}
	}
}

// unlockedLoopExits: break, continue and the loop's end all leave with
// the lock released: clean.
func unlockedLoopExits(ch chan int, xs []int) {
	for _, x := range xs {
		muC.Lock()
		if x < 0 {
			muC.Unlock()
			break
		}
		if x == 0 {
			muC.Unlock()
			continue
		}
		muC.Unlock()
	}
	ch <- 1
}

// switchNoDefault: the implicit arm of a switch with no default skips
// both unlocks.
func switchNoDefault(ch chan int, k int) {
	muC.Lock()
	switch k {
	case 0:
		muC.Unlock()
	case 1:
		muC.Unlock()
	}
	ch <- k // want `lockcheck.muC may be held \(acquired at line 221\) across channel send`
}

// switchFallthrough: the first clause falls into the second, whose unlock
// every path shares: clean.
func switchFallthrough(ch chan int, k int) {
	muC.Lock()
	switch k {
	case 0:
		k++
		fallthrough
	case 1:
		muC.Unlock()
	default:
		muC.Unlock()
	}
	ch <- k
}

// selectArmUnlocks: only one arm of a non-blocking select unlocks, and the
// receive in its comm clause is not itself a site.
func selectArmUnlocks(ch, done chan int) {
	muC.Lock()
	select {
	case <-done:
		muC.Unlock()
	default:
	}
	ch <- 1 // want `lockcheck.muC may be held \(acquired at line 250\) across channel send`
}

// selectArmsUnlock: every arm unlocks: clean.
func selectArmsUnlock(ch, done chan int) {
	muC.Lock()
	select {
	case <-done:
		muC.Unlock()
	default:
		muC.Unlock()
	}
	ch <- 1
}

// panicEndsPath: the locked arm panics, so no path reaches the send with
// the lock held: clean.
func panicEndsPath(ch chan int, bad bool) {
	if bad {
		muC.Lock()
		panic("bad")
	}
	ch <- 1
}

// unreachableAfterReturn: no path reaches the send: clean.
func unreachableAfterReturn(ch chan int) {
	muC.Lock()
	defer muC.Unlock()
	return
	ch <- 1
}

// foreverLoop never leaves its loop, so the code after it is dead: clean.
func foreverLoop(ch chan int) {
	for {
		muC.Lock()
		muC.Unlock()
	}
	muC.Lock()
	ch <- 1
}

// gotoBackEdge: the goto carries the lock back to its label.
func gotoBackEdge(ch chan int, n int) {
again:
	ch <- n // want `lockcheck.muC may be held \(acquired at line 305\) across channel send`
	if n > 0 {
		n--
		muC.Lock()
		goto again
	}
}

// push blocks on a channel send; it takes no lock itself.
func push(ch chan int) { ch <- 1 }

// heldAcrossHelper holds muC across a call to push, which blocks one call
// down. The check reads one body at a time and does not follow calls, so
// the call is not reported: only the curated blocking calls are
// classified where they are made.
func heldAcrossHelper(ch chan int) {
	muC.Lock()
	push(ch)
	muC.Unlock()
}
