package main

import (
	"encoding/json"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark is sized for is a 2-vCPU slice of a shared
// machine, and the speed at which it runs codec- and allocation-heavy
// code moves by up to 1.8x in episodes that last seconds to minutes (a
// pinned single-threaded JSON loop measured 72 to 135 units per window
// over 100 s with nothing else running). Every CPU-bound number moves
// with it, so the raw saturation rate of one workload spread by 30% over
// ten runs, far above any useful bound.
//
// The calibration measures that speed while a pass runs: a thread per
// vCPU, pinned to it, times a fixed reference kernel every calibEvery, in
// thread CPU time, which keeps growing while the thread runs slowly but
// not while it waits to run. Times are then reported as they would read
// on a host that runs the kernel in calibNominal (time x speed), and
// rates likewise (rate / speed), where speed is the mean of
// calibNominal/kernel-time over the interval the number was measured in.
// The two vCPUs are not equally fast at a given moment, so a plan pass,
// whose work is one goroutine, pins that goroutine's thread to one vCPU
// and samples only there (170 two-second CRAM runs: raw times spread by
// 18%, normalised from the other vCPU by 8%, from the same one by 4.6%),
// and a wire pass, whose goroutines use both, averages the two. The
// kernel uses encoding/json on a type of the benchmark's own and nothing
// from the repository, so a change to the system cannot move the
// yardstick. The raw numbers and the measured speed are printed beside
// the normalised ones.
const (
	calibEvery   = 20 * time.Millisecond
	calibNominal = time.Millisecond
	// calibRounds sizes the kernel to about calibNominal on this host
	// when it is quiet.
	calibRounds = 250
	// calibMaxCPUs bounds the sampling threads on a larger host; the
	// load is sized for two.
	calibMaxCPUs = 4
)

type calibDoc struct {
	Kind string `json:"kind"`
	Pub  *struct {
		Adv   string         `json:"adv"`
		Seq   int            `json:"seq"`
		Attrs map[string]any `json:"attrs"`
	} `json:"pub"`
}

var calibInput = []byte(`{"kind":"publication","pub":{"adv":"ADV-T","seq":12345,"attrs":{"price":123.45,"symbol":"SYM042"}}}`)

// calibKernel is the reference work: decode and re-encode a small
// envelope-shaped document, which allocates and walks maps the way the
// system's own hot paths do.
func calibKernel() {
	for i := 0; i < calibRounds; i++ {
		var d calibDoc
		if json.Unmarshal(calibInput, &d) != nil {
			panic("bench: calibration input does not decode")
		}
		if _, err := json.Marshal(&d); err != nil {
			panic("bench: calibration document does not encode")
		}
	}
}

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID, the calling thread's CPU
// clock.
const clockThreadCPUTime = 3

// cpuClockOf returns the id of thread tid's CPU clock, the kernel's
// MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED), which any thread of the
// process may read.
func cpuClockOf(tid int) uintptr { return uintptr(^tid<<3 | 6) }

// readCPUClock reads a CPU clock; ok is false once its thread is gone.
func readCPUClock(id uintptr) (time.Duration, bool) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, false
	}
	return time.Duration(ts.Nano()), true
}

// threadCPU returns the calling thread's consumed CPU time.
func threadCPU() time.Duration {
	d, _ := readCPUClock(clockThreadCPUTime)
	return d
}

// cpuMask is a thread's CPU affinity as the kernel lays it out.
type cpuMask [16]uint64

// threadAffinity returns the CPUs the calling thread may run on.
func threadAffinity() (cpuMask, bool) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0])))
	return m, errno == 0
}

// setThreadAffinity restricts the calling thread, which must be locked to
// its goroutine, to the CPUs of m.
func setThreadAffinity(m cpuMask) bool {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0])))
	return errno == 0
}

func oneCPU(cpu int) cpuMask {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	return m
}

// cpus lists the CPUs of m, lowest first.
func (m cpuMask) cpus() []int {
	var out []int
	for w, word := range m {
		for word != 0 {
			out = append(out, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return out
}

// sampler is one calibration thread.
type sampler struct {
	mu    sync.Mutex
	atNs  []int64   // sample times since the epoch, ascending
	speed []float64 // calibNominal / kernel CPU time
	// tid is the sampling thread once it runs; born is its CPU clock
	// when sampling began and spent what it had consumed at its last
	// sample, the figure left when the thread has gone.
	tid, born, spent atomic.Int64
}

// spentCPU returns the CPU time the sampling thread has consumed up to
// this instant, read off the thread's own clock: a pass times intervals
// shorter than one kernel run.
func (s *sampler) spentCPU() time.Duration {
	if tid := s.tid.Load(); tid != 0 {
		if now, ok := readCPUClock(cpuClockOf(int(tid))); ok {
			return now - time.Duration(s.born.Load())
		}
	}
	return time.Duration(s.spent.Load())
}

// run samples until stop closes. cpu < 0 leaves the thread unpinned.
func (s *sampler) run(epoch time.Time, cpu int, stop <-chan struct{}) {
	// Thread CPU time and affinity belong to one thread. The goroutine
	// ends without unlocking, which retires the pinned thread with it.
	runtime.LockOSThread()
	if cpu >= 0 {
		setThreadAffinity(oneCPU(cpu)) // unpinned sampling is the fallback
	}
	t := time.NewTicker(calibEvery)
	defer t.Stop()
	born := threadCPU()
	s.born.Store(int64(born))
	s.tid.Store(int64(syscall.Gettid()))
	for {
		c0 := threadCPU()
		calibKernel()
		c1 := threadCPU()
		s.spent.Store(int64(c1 - born))
		if d := c1 - c0; d > 0 {
			s.mu.Lock()
			s.atNs = append(s.atNs, time.Since(epoch).Nanoseconds())
			s.speed = append(s.speed, float64(calibNominal)/float64(d))
			s.mu.Unlock()
		}
		select {
		case <-t.C:
		case <-stop:
			return
		}
	}
}

// over returns the sum and count of the speeds sampled in [aNs, bNs).
func (s *sampler) over(aNs, bNs int64) (sum float64, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo := sort.Search(len(s.atNs), func(i int) bool { return s.atNs[i] >= aNs })
	hi := sort.Search(len(s.atNs), func(i int) bool { return s.atNs[i] >= bNs })
	for _, v := range s.speed[lo:hi] {
		sum += v
	}
	return sum, hi - lo
}

// calibration samples the host's speed for as long as a pass runs.
type calibration struct {
	samplers []*sampler
	stop     chan struct{}
	done     sync.WaitGroup
	// restore is the calling thread's affinity before it was pinned.
	restore *cpuMask
}

// startCalibration starts the sampling threads. With pinCaller the
// calling goroutine is locked to its thread, the thread is pinned to one
// CPU and only that CPU is sampled; otherwise every CPU the process may
// use is. Where the kernel refuses affinity calls one unpinned thread
// samples wherever it runs.
func startCalibration(epoch time.Time, pinCaller bool) *calibration {
	c := &calibration{stop: make(chan struct{})}
	cpus := []int{-1}
	if mask, ok := threadAffinity(); ok && len(mask.cpus()) > 0 {
		cpus = mask.cpus()
		if len(cpus) > calibMaxCPUs {
			cpus = cpus[:calibMaxCPUs]
		}
		if pinCaller {
			runtime.LockOSThread()
			cpus = cpus[:1]
			if setThreadAffinity(oneCPU(cpus[0])) {
				c.restore = &mask
			} else {
				runtime.UnlockOSThread()
			}
		}
	}
	for _, cpu := range cpus {
		s := &sampler{}
		c.samplers = append(c.samplers, s)
		c.done.Add(1)
		go func() {
			defer c.done.Done()
			s.run(epoch, cpu, c.stop)
		}()
	}
	return c
}

// finish stops the sampling threads, waits for them and unpins the
// caller.
func (c *calibration) finish() {
	close(c.stop)
	c.done.Wait()
	if c.restore != nil {
		setThreadAffinity(*c.restore)
		runtime.UnlockOSThread()
	}
}

// spentCPU returns the CPU time the sampling threads have consumed, which
// the pass subtracts from the process's so that the yardstick is not
// charged to the system.
func (c *calibration) spentCPU() time.Duration {
	var total time.Duration
	for _, s := range c.samplers {
		total += s.spentCPU()
	}
	return total
}

// speedOver returns the mean host speed over [aNs, bNs), widened by one
// sampling period on each side so that a short interval still holds a
// sample; with no sample at all the host counts as nominal.
func (c *calibration) speedOver(aNs, bNs int64) float64 {
	aNs -= calibEvery.Nanoseconds()
	bNs += calibEvery.Nanoseconds()
	var sum float64
	n := 0
	for _, s := range c.samplers {
		ss, sn := s.over(aNs, bNs)
		sum, n = sum+ss, n+sn
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}
