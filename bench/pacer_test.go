package main

import (
	"testing"
	"time"

	"github.com/greenps/greenps/internal/message"
)

// fakeClock is virtual time: Sleep advances it by the requested duration
// plus a fixed oversleep, the way a real timer fires late.
type fakeClock struct {
	now       time.Time
	oversleep time.Duration
	sleeps    []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d + c.oversleep)
}

func TestPacerKeepsAbsoluteSchedule(t *testing.T) {
	const tick = 4 * time.Millisecond
	clk := &fakeClock{now: time.Unix(100, 0), oversleep: time.Millisecond}
	p := newPacer(clk, tick, 8)
	start := clk.now

	// Tick 0 is due at once: no sleep, no lateness.
	if due := p.wait(0); !due.Equal(start) {
		t.Fatalf("tick 0 due %v, want %v", due, start)
	}
	// Ticks 1 and 2: the generator sleeps to the due time and the timer
	// fires 1 ms late, which is the lateness charged.
	for k := 1; k <= 2; k++ {
		due := p.wait(k)
		if want := start.Add(time.Duration(k) * tick); !due.Equal(want) {
			t.Errorf("tick %d due %v, want %v", k, due, want)
		}
	}
	// Sending tick 2's burst stalls for 10 ms: ticks 3 and 4 are already
	// due, are released without sleeping, and their due times have not
	// moved with the stall.
	clk.now = clk.now.Add(10 * time.Millisecond)
	sleepsBefore := len(clk.sleeps)
	d3, d4 := p.wait(3), p.wait(4)
	if len(clk.sleeps) != sleepsBefore {
		t.Errorf("overdue ticks slept %v", clk.sleeps[sleepsBefore:])
	}
	if !d3.Equal(start.Add(3*tick)) || !d4.Equal(start.Add(4*tick)) {
		t.Errorf("a stall moved the schedule: ticks 3, 4 due %v, %v", d3, d4)
	}
	// Tick 5 is in the future again.
	p.wait(5)

	// Tick 2 was released at 8+1 = 9 ms; the stall ends at 19 ms.
	want := []time.Duration{0, time.Millisecond, time.Millisecond, 7 * time.Millisecond, 3 * time.Millisecond, time.Millisecond}
	if len(p.late) != len(want) {
		t.Fatalf("lateness recorded for %d ticks, want %d", len(p.late), len(want))
	}
	for k, w := range want {
		if p.late[k] != w {
			t.Errorf("tick %d lateness %v, want %v", k, p.late[k], w)
		}
	}
}

func TestPhaseInvalidWhenGeneratorLate(t *testing.T) {
	ph := &phase{tick: 4 * time.Millisecond}
	for i := 0; i < 100; i++ {
		ph.late = append(ph.late, time.Millisecond)
	}
	if !ph.valid() {
		t.Error("a generator 1 ms late at p99 must leave the phase valid")
	}
	// Two ticks in a hundred later than one tick put p99 past it.
	ph.late[10], ph.late[20] = 5*time.Millisecond, 6*time.Millisecond
	if ph.valid() {
		t.Errorf("p99 lateness %.1f ms must invalidate a %v-tick phase", lateQuantile(ph.late, 0.99), ph.tick)
	}
}

func TestPhaseDueTimes(t *testing.T) {
	ph := &phase{base: 100, startNs: 1e9, tick: 4 * time.Millisecond, burst: 16}
	for _, tc := range []struct {
		idx  int
		want int64
	}{{100, 1e9}, {115, 1e9}, {116, 1e9 + 4e6}, {100 + 16*10 + 3, 1e9 + 40e6}} {
		if got := ph.dueNs(tc.idx); got != tc.want {
			t.Errorf("publication %d due at %d, want %d", tc.idx, got, tc.want)
		}
	}
}

func TestWindowParksUntilCompletion(t *testing.T) {
	w := newWindow(2)
	never := make(chan struct{})
	for i := 0; i < 2; i++ {
		if !w.acquire(time.Second, never) {
			t.Fatalf("slot %d of an empty window was refused", i)
		}
	}
	acquired := make(chan bool, 1)
	go func() { acquired <- w.acquire(5*time.Second, never) }()
	select {
	case <-acquired:
		t.Fatal("a third publication was admitted into a window of two")
	case <-time.After(20 * time.Millisecond):
	}
	w.complete(1)
	select {
	case ok := <-acquired:
		if !ok {
			t.Fatal("the freed slot was not granted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the generator stayed parked after a completion")
	}
	if w.sent != 3 {
		t.Errorf("sent = %d after three grants", w.sent)
	}
}

func TestWindowGivesUp(t *testing.T) {
	w := newWindow(1)
	never := make(chan struct{})
	if !w.acquire(time.Second, never) {
		t.Fatal("first slot refused")
	}
	if w.acquire(10*time.Millisecond, never) {
		t.Error("a full window granted a slot at its deadline")
	}
	abort := make(chan struct{})
	close(abort)
	if w.acquire(5*time.Second, abort) {
		t.Error("a full window granted a slot after the abort")
	}
	if w.waitDone(1, 10*time.Millisecond, never) {
		t.Error("waitDone reported a publication nobody completed")
	}
	w.complete(1)
	if !w.waitDone(1, time.Second, never) {
		t.Error("waitDone missed a completion that had already happened")
	}
}

// deliver feeds the receiver one delivery of publication index i.
func deliver(r *receiver, i, hops int) {
	r.observe(&message.Publication{AdvID: wireAdvID, Seq: r.d.base + i, Hops: hops, Attrs: r.table[i%len(r.table)]})
}

func TestReceiverCountsEveryKindOfFailure(t *testing.T) {
	spec := wireSpecs["wire_fanout16"]
	spec.fan = 2
	newReceiver := func() *receiver {
		return &receiver{
			spec: &spec, table: newPubTable(&spec, 1), d: &deployment{base: 7},
			epoch: time.Now(), win: newWindow(4),
		}
	}

	r := newReceiver()
	r.observe(&message.Publication{AdvID: wireAdvID, Seq: 3}) // a late settle probe
	for i := 0; i < 3; i++ {
		deliver(r, i, 0)
		deliver(r, i, 0)
	}
	if r.failed != 0 || r.next != 3 || len(r.ns) != 6 || r.win.done.Load() != 3 {
		t.Fatalf("clean stream: failed=%d next=%d logged=%d done=%d", r.failed, r.next, len(r.ns), r.win.done.Load())
	}

	r = newReceiver()
	deliver(r, 0, 0)
	deliver(r, 0, 0)
	deliver(r, 0, 0) // a third copy of a publication delivered twice
	if r.failed != 1 {
		t.Errorf("duplicate: failed = %d, want 1", r.failed)
	}

	r = newReceiver()
	deliver(r, 0, 0)
	deliver(r, 2, 0) // one copy of 0 and both copies of 1 never came
	if r.failed != 3 || r.next != 2 || r.copies != 1 {
		t.Errorf("loss: failed=%d next=%d copies=%d, want 3, 2, 1", r.failed, r.next, r.copies)
	}

	r = newReceiver()
	deliver(r, 0, 1) // one hop too many for a single broker
	r.observe(&message.Publication{AdvID: "ADV-X", Seq: r.d.base, Attrs: r.table[0]})
	if r.failed != 2 {
		t.Errorf("wrong hops and advertisement: failed = %d, want 2", r.failed)
	}

	r = newReceiver()
	altered := map[string]message.Value{}
	for k, v := range r.table[0] {
		altered[k] = v
	}
	altered["price"] = message.Number(-1)
	r.observe(&message.Publication{AdvID: wireAdvID, Seq: r.d.base, Attrs: altered}) // index 0 is compared in full
	if r.failed != 1 {
		t.Errorf("altered attribute: failed = %d, want 1", r.failed)
	}
}
