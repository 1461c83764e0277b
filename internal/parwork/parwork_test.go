package parwork

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d, want 5", got)
	}
}

// TestRunCoversEveryIndexOnce: at any worker count and size, the chunks
// partition [0, n) — every index visited exactly once.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 64, 100, 1000} {
		for _, w := range []int{1, 2, 3, 8, 100} {
			visits := make([]int32, n)
			Run(n, w, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("n=%d w=%d: bad chunk [%d,%d)", n, w, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, v)
				}
			}
		}
	}
}

// TestRunSmallInline: below workers*minChunk items the whole range must
// arrive as one inline chunk.
func TestRunSmallInline(t *testing.T) {
	calls := 0
	Run(minChunk*2-1, 2, func(lo, hi int) {
		calls++
		if lo != 0 || hi != minChunk*2-1 {
			t.Errorf("inline chunk = [%d,%d), want [0,%d)", lo, hi, minChunk*2-1)
		}
	})
	if calls != 1 {
		t.Errorf("small range split into %d chunks, want 1 inline call", calls)
	}
}

// TestRunZeroAndOneWorker: the Parallelism=0 ("all cores") and =1 edge
// cases must both cover the range exactly once; with one worker the whole
// range must arrive inline as a single chunk.
func TestRunZeroAndOneWorker(t *testing.T) {
	const n = 100
	for _, w := range []int{Workers(0), 1} {
		visits := make([]int32, n)
		var chunks atomic.Int32 // chunks run concurrently when w > 1
		Run(n, w, func(lo, hi int) {
			chunks.Add(1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("w=%d: index %d visited %d times", w, i, v)
			}
		}
		if w == 1 && chunks.Load() != 1 {
			t.Errorf("w=1: ran %d chunks, want 1 inline call", chunks.Load())
		}
	}
}

// TestRunPanicPropagation: a worker panic must surface on the caller as a
// *PanicError naming the first panicking chunk in index order — the same
// one at any worker count, inline path included.
func TestRunPanicPropagation(t *testing.T) {
	const n = 256
	for _, w := range []int{1, 2, 4, 8} {
		func() {
			defer func() {
				v := recover()
				pe, ok := v.(*PanicError)
				if !ok {
					t.Fatalf("w=%d: recovered %T (%v), want *PanicError", w, v, v)
				}
				if pe.Value != "boom 0" {
					t.Errorf("w=%d: panic value %v, want first chunk's \"boom 0\"", w, pe.Value)
				}
				if len(pe.Stack) == 0 {
					t.Errorf("w=%d: PanicError carries no stack", w)
				}
			}()
			Run(n, w, func(lo, hi int) {
				panic("boom " + string(rune('0'+lo/((n+w-1)/w))))
			})
			t.Fatalf("w=%d: Run returned normally", w)
		}()
	}
}

// TestRunPanicWaitsForAllChunks: even when one chunk panics, every other
// chunk must still run to completion before Run re-panics, so no goroutine
// is left concurrently mutating caller state after Run returns.
func TestRunPanicWaitsForAllChunks(t *testing.T) {
	const n = 256
	const w = 4
	var ran int32
	func() {
		defer func() { recover() }()
		Run(n, w, func(lo, hi int) {
			atomic.AddInt32(&ran, int32(hi-lo))
			if lo == 0 {
				panic("first chunk dies")
			}
		})
	}()
	if got := atomic.LoadInt32(&ran); got != n {
		t.Errorf("only %d of %d indexes processed before re-panic", got, n)
	}
}

// TestNoGoroutineLeak: Run must leave no goroutines behind, including on
// the panic path.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		Run(1000, 8, func(lo, hi int) {})
		func() {
			defer func() { recover() }()
			Run(1000, 8, func(lo, hi int) { panic("x") })
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after — leak", before, after)
	}
}
