// Package cg is the call-graph unit-test fixture: each cluster of
// declarations exercises one resolution or summary-propagation shape the
// tests assert on by node name.
package cg

import "sync"

// --- transitive blocking: the operation is two calls deep ---

func Leaf(ch chan int) { ch <- 1 } // blocks: channel send

func Mid(ch chan int) { Leaf(ch) }

func Top(ch chan int) { Mid(ch) }

// --- mutual recursion: the SCC fixpoint must converge and both members
// must inherit the blocking fact from the single base case ---

func Even(n int, ch chan int) {
	if n == 0 {
		ch <- 0
		return
	}
	Odd(n-1, ch)
}

func Odd(n int, ch chan int) {
	if n == 0 {
		return
	}
	Even(n-1, ch)
}

// --- method values: r.Block assigned to a variable and called later ---

type R struct {
	mu sync.Mutex
	ch chan int
}

func (r *R) Block() { r.ch <- 1 }

func (r *R) Quiet() {}

func MethodValue(r *R) {
	f := r.Block
	f()
}

// --- closures: a literal capturing the receiver, assigned then called ---

func (r *R) Closure() {
	send := func() { r.ch <- 2 }
	send()
}

// --- deferred calls: blocking work in a defer still blocks the caller ---

func DeferBlock(r *R) {
	defer r.Block()
}

// --- go statements: a spawned body's blocking must NOT propagate ---

func SpawnOnly(r *R) {
	go r.Block()
}

// --- interface dispatch: CHA must reach both implementations ---

type Doer interface{ Do() }

type BlockingDoer struct{ ch chan int }

func (d *BlockingDoer) Do() { d.ch <- 1 }

type QuietDoer struct{}

func (QuietDoer) Do() {}

func Dispatch(d Doer) { d.Do() }

// --- function values through assignments, including reassignment ---

func FuncVar(r *R) {
	f := func() {}
	f = r.Block
	f()
}

// --- widening: a call through a parameter resolves to nothing and must
// not invent facts ---

func CallsParam(f func()) { f() }

// --- locks: composed acquisition order across a call boundary ---

type Two struct {
	a, b sync.Mutex
}

func (t *Two) LockB() {
	t.b.Lock()
	t.b.Unlock()
}

func (t *Two) NestedViaCall() {
	t.a.Lock()
	defer t.a.Unlock()
	t.LockB() // composes order edge Two.a -> Two.b
}
