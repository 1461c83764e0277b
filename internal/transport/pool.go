package transport

import (
	"os"
	"sync"
)

// BufPool recycles frame payload buffers through per-size-class
// freelists, the fixed-block-cache idiom: Get hands out a buffer whose
// capacity is the smallest class covering the request, Put returns it.
// Lifetimes are explicit — a buffer is owned by exactly one holder
// between Get and Put, and using it after Put is a bug the same way
// use-after-free is. The broker's receive path Gets one buffer per
// frame and Puts it back as soon as the frame is decoded; the send path
// Gets encode buffers and Puts them after the gathered write completes.
//
// Each class is bounded, so a burst leaves at most poolMaxPerClass
// buffers per class cached; everything beyond that falls back to the
// allocator and is dropped on Put. Requests larger than the biggest
// class (64 KiB) are served by plain allocation and never pooled —
// oversized frames (BIA floods) are rare and shouldn't pin memory.
type BufPool struct {
	mu      sync.Mutex
	classes [poolClasses][][]byte

	// stats, guarded by mu.
	gets int64 // total Get calls
	hits int64 // Gets served from a freelist
	puts int64 // total Put calls
	drop int64 // Puts dropped (full class or unpooled size)
}

const (
	// poolMinShift sizes the smallest class at 1<<poolMinShift bytes.
	poolMinShift = 8 // 256 B
	// poolClasses spans 256 B .. 64 KiB in power-of-two steps.
	poolClasses = 9
	// poolMaxPerClass bounds each freelist.
	poolMaxPerClass = 64
)

// NewBufPool returns an empty pool.
func NewBufPool() *BufPool { return &BufPool{} }

// classFor returns the index of the smallest class whose buffers hold n
// bytes, or -1 when n exceeds the largest class.
func classFor(n int) int {
	size := 1 << poolMinShift
	for c := 0; c < poolClasses; c++ {
		if n <= size {
			return c
		}
		size <<= 1
	}
	return -1
}

// Get returns a buffer of length n. Its capacity is the full class size,
// so append within the class never reallocates. The caller owns the
// buffer until Put.
func (p *BufPool) Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		p.mu.Lock()
		p.gets++
		p.mu.Unlock()
		return make([]byte, n)
	}
	p.mu.Lock()
	p.gets++
	if fl := p.classes[c]; len(fl) > 0 {
		b := fl[len(fl)-1]
		fl[len(fl)-1] = nil
		p.classes[c] = fl[:len(fl)-1]
		p.hits++
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, 1<<(poolMinShift+c))
}

// poolDebug enables the release checks: every Put overwrites the buffer
// with poolPoison before it can be re-issued, so a reader holding a
// stale reference sees garbage immediately instead of whichever frame
// happens to recycle the block later, and a Put of a block that is
// already on its freelist (a double release) panics. Set
// GREENPS_POOLDEBUG=1 in tests (the race CI leg does) to turn silent
// use-after-Put and double-Put corruption into a loud failure.
var poolDebug = os.Getenv("GREENPS_POOLDEBUG") == "1"

// poolPoison is the debug fill byte (0xDB, "debug").
const poolPoison = 0xDB

// Put returns a buffer to the pool and ENDS the caller's ownership of
// it: the contract is the same as free(3), and both reading and writing
// b after Put is a bug even if the bytes look intact, because Get may
// re-issue the block to any other caller at any time. Put accepts only
// buffers that came from Get — a foreign buffer (make, or a re-sliced
// view whose capacity is no longer an exact class size) is dropped for
// the allocator rather than cached, and the stats count the drop.
// Oversized buffers (beyond the largest class) and buffers arriving at
// a full class are likewise dropped. nil is a no-op. Nothing checks the
// contract statically: the Gets == Puts balance tests cover leaks, and
// GREENPS_POOLDEBUG=1 poisons released buffers and panics on a double
// release.
func (p *BufPool) Put(b []byte) {
	if b == nil {
		return
	}
	if poolDebug {
		b = b[:cap(b)]
		for i := range b {
			b[i] = poolPoison
		}
	}
	c := classFor(cap(b))
	p.mu.Lock()
	defer p.mu.Unlock()
	p.puts++
	if c < 0 || cap(b) != 1<<(poolMinShift+c) || len(p.classes[c]) >= poolMaxPerClass {
		p.drop++
		return
	}
	if poolDebug {
		for _, held := range p.classes[c] {
			if &held[:1][0] == &b[0] {
				panic("transport: BufPool.Put of a buffer that was already released")
			}
		}
	}
	p.classes[c] = append(p.classes[c], b)
}

// PoolStats is a point-in-time snapshot of a BufPool's traffic.
type PoolStats struct {
	Gets, Hits, Puts, Drops int64
}

// Stats snapshots the pool counters.
func (p *BufPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Gets: p.gets, Hits: p.hits, Puts: p.puts, Drops: p.drop}
}
