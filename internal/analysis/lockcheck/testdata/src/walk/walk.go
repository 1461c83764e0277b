// Package walk is the lockset walk's unit-test fixture: each function is
// one control shape, and TestLockWalk asserts its HeldSites by name.
package walk

import "sync"

var mu, nu sync.Mutex

func StraightLine(ch chan int) {
	mu.Lock()
	ch <- 1
	mu.Unlock()
	ch <- 2
}

func IfElse(ch chan int, c bool) {
	if c {
		mu.Lock()
	} else {
		ch <- 0
	}
	ch <- 1
}

func IfWithoutElse(ch chan int, c bool) {
	mu.Lock()
	if c {
		mu.Unlock()
	}
	ch <- 1
}

func IfBothArmsReturn(ch chan int, c bool) {
	mu.Lock()
	if c {
		mu.Unlock()
		return
	} else {
		return
	}
	ch <- 1
}

// JoinFirstPosition: both arms lock; the merge keeps the first arm's
// acquisition.
func JoinFirstPosition(ch chan int, c bool) {
	if c {
		mu.Lock()
	} else {
		mu.Lock()
	}
	ch <- 1
}

func ForLoop(ch chan int, n int) {
	for i := 0; i < n; i++ {
		ch <- i
		mu.Lock()
	}
}

// ForBreakContinue: the continue carries mu to the head; the only way out
// of a loop with no condition is the break, which leaves unlocked.
func ForBreakContinue(ch chan int) {
	for i := 0; ; i++ {
		ch <- i
		mu.Lock()
		if i == 3 {
			continue
		}
		mu.Unlock()
		if i == 5 {
			break
		}
	}
	ch <- 1
}

func InfiniteLoop(ch chan int) {
	for {
		mu.Lock()
		ch <- 1
		mu.Unlock()
	}
	mu.Lock()
	ch <- 2
}

// LabeledBreakContinue: continue outer brings mu to the outer head, and
// break outer brings nu (and mu) past the outer loop.
func LabeledBreakContinue(ch chan int, rows [][]int) {
outer:
	for _, row := range rows {
		ch <- 0
		for _, x := range row {
			if x == 1 {
				mu.Lock()
				continue outer
			}
			if x == 2 {
				nu.Lock()
				break outer
			}
		}
	}
	ch <- 1
}

// Range: the range's operand is received with the head fact, where the
// path from before the loop names the acquisition; the body is not part
// of the head.
func Range(chs chan chan int) {
	mu.Lock()
	for ch := range chs {
		mu.Unlock()
		ch <- 1
		mu.Lock()
	}
}

// SwitchFallthrough: the first clause's lock falls into the second.
func SwitchFallthrough(ch chan int, k int) {
	switch k {
	case 0:
		mu.Lock()
		fallthrough
	case 1:
		ch <- k
		mu.Unlock()
	default:
	}
	ch <- 0
}

// Select: the select blocks, not its comm clauses.
func Select(ch, done chan int) {
	mu.Lock()
	select {
	case v := <-ch:
		mu.Unlock()
		ch <- v
	case <-done:
		return
	}
	ch <- 1
}

func EmptySelect(ch chan int) {
	mu.Lock()
	select {}
	ch <- 1
}

// Defer: a deferred unlock keeps mu held, and neither a deferred nor a
// spawned call is a site.
func Defer(ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	defer close(ch)
	go func() { ch <- 2 }()
	ch <- 1
}

func Goto(ch chan int, n int) {
again:
	ch <- n
	if n > 0 {
		n--
		mu.Lock()
		goto again
	}
}

func GotoForward(ch chan int, c bool) {
	if c {
		mu.Lock()
		goto done
	}
	ch <- 0
done:
	ch <- 1
}

func Panic(ch chan int, c bool) {
	if c {
		mu.Lock()
		panic("locked")
	}
	ch <- 1
}

func UnreachableAfterReturn(ch chan int) {
	mu.Lock()
	return
	ch <- 1
}

// FuncLit: the literal's send belongs to the literal's own body.
func FuncLit(ch chan int) {
	mu.Lock()
	f := func() { ch <- 1 }
	mu.Unlock()
	f()
}
