// Package parwork provides the deterministic fork/join helper behind CRAM's
// seed phase, the one loop the allocation core fans out. It deliberately
// exposes only a chunked parallel-for: callers split index ranges across
// workers, write results into pre-sized slices (or reduce per-chunk
// partials in canonical chunk order), and therefore produce bit-for-bit
// identical output at any worker count. No work item may depend on another
// item scheduled in the same call.
package parwork

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Workers normalizes a parallelism setting: values <= 0 mean "all cores"
// (runtime.GOMAXPROCS(0)).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// minChunk is the smallest per-worker slice worth a goroutine; below
// workers*minChunk items the loop runs inline on the caller's goroutine.
const minChunk = 16

// PanicError carries a panic recovered on a parallel worker back to the
// coordinator, preserving the worker's stack. Run re-panics with a
// *PanicError in chunk order so that a crash is reproducible at any
// worker count instead of killing the process from whichever goroutine
// lost the race.
type PanicError struct {
	// Value is the value originally passed to panic.
	Value any
	// Stack is the worker's stack trace at the point of the panic.
	Stack []byte
}

// Error formats the original panic value followed by the worker stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parwork: worker panic: %v\n%s", e.Value, e.Stack)
}

// call runs fn(lo, hi), converting a panic into a *PanicError. An
// already-wrapped *PanicError passes through so nested Run calls keep the
// innermost stack.
func call(fn func(lo, hi int), lo, hi int) (pe *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			if inner, ok := v.(*PanicError); ok {
				pe = inner
				return
			}
			pe = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	fn(lo, hi)
	return nil
}

// Run executes fn over the half-open chunks of [0, n) using at most the
// given number of workers. fn must treat its [lo, hi) range independently
// of every other chunk; chunk boundaries are a pure scheduling concern and
// must not influence results. With workers <= 1 (or n too small to pay for
// goroutines) fn runs inline as fn(0, n).
//
// If fn panics, Run waits for every chunk to finish and then re-panics
// with a *PanicError for the first panicking chunk in index order — the
// same chunk at any worker count, including the inline path.
func Run(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n/minChunk {
		workers = n / minChunk
	}
	if workers <= 1 {
		if pe := call(fn, 0, n); pe != nil {
			panic(pe)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	panics := make([]*PanicError, (n+chunk-1)/chunk)
	var wg sync.WaitGroup
	idx := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(idx, lo, hi int) {
			defer wg.Done()
			panics[idx] = call(fn, lo, hi)
		}(idx, lo, hi)
		idx++
	}
	wg.Wait()
	for _, pe := range panics {
		if pe != nil {
			panic(pe)
		}
	}
}
