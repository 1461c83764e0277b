package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/client"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/telemetry"
)

// wireSpec describes one wire workload: a chain of in-process brokers
// over loopback TCP with one publisher connection at the head and one
// subscriber connection at the tail.
type wireSpec struct {
	name string
	// brokers is the chain length; a publication crosses brokers-1
	// broker-to-broker links.
	brokers int
	// symbols is the number of distinct "symbol" values published.
	symbols int
	// fan is the number of equality subscriptions per symbol on the
	// subscriber connection, so every publication is delivered fan
	// times.
	fan int
	// filler is the number of never-matching subscriptions. With
	// fillerOnSymbol they are two-predicate (symbol = S, price > out of
	// reach) and land in the matcher's equality buckets; without, they
	// are ranges on an attribute no publication carries.
	filler         int
	fillerOnSymbol bool
	// attrs is the number of attributes a publication carries.
	attrs int
	// window is the closed loop's in-flight limit, in publications.
	window int
	// tick and burst give the cruise rate: burst publications per tick.
	tick  time.Duration
	burst int
	// setups is how often the deployment is built to take setup_s as a
	// median; the last one carries the traffic.
	setups int
	// warmup precedes the measured phases and is not measured.
	warmup time.Duration
	// rateWindow is the bucket the saturation rate is the median of.
	rateWindow time.Duration
	// drainLimit bounds the wait for deliveries after the last send.
	drainLimit time.Duration
}

var wireSpecs = map[string]wireSpec{
	"wire_chain3": {
		name: "wire_chain3", brokers: 3, symbols: 100, fan: 1, filler: 200,
		attrs: 2, window: 1024, tick: 4 * time.Millisecond, burst: 16,
		setups: 40, warmup: 500 * time.Millisecond, rateWindow: 500 * time.Millisecond,
		drainLimit: 10 * time.Second,
	},
	"wire_fanout16": {
		name: "wire_fanout16", brokers: 1, symbols: 100, fan: 16, filler: 5000, fillerOnSymbol: true,
		attrs: 12, window: 256, tick: 4 * time.Millisecond, burst: 4,
		setups: 25, warmup: 500 * time.Millisecond, rateWindow: 500 * time.Millisecond,
		drainLimit: 10 * time.Second,
	},
}

const (
	wireAdvID   = "ADV-T"
	probeSymbol = "PROBE"
	// pubTableSize is how many distinct attribute sets the generator
	// cycles through.
	pubTableSize = 1024
	// fullCheckEvery is the stride of the full attribute comparison;
	// every delivery has its sequence, advertisement, hop count and
	// symbol checked.
	fullCheckEvery = 64
	// sustainedP90Ms is the latency limit of bench.sustained_rate.
	sustainedP90Ms = 20.0
)

func symbolName(s int) string { return fmt.Sprintf("SYM%03d", s) }

// attrOrder is the order attributes are added in as a publication grows
// from 2 to 12 attributes (the stock-quote schema of internal/workload
// without "volume", which the chain's filler subscriptions range over).
var attrOrder = []string{"symbol", "price", "class", "open", "high", "low", "close", "date",
	"openClose%Diff", "highLow%Diff", "closeEqualsLow", "closeEqualsHigh"}

// newPubTable draws the attribute sets the generator publishes from the
// seed. The receiver holds the same table, so it knows what publication
// index i must carry without sharing memory with the generator.
func newPubTable(spec *wireSpec, seed int64) []map[string]message.Value {
	rng := rand.New(rand.NewSource(seed))
	table := make([]map[string]message.Value, pubTableSize)
	for i := range table {
		price := float64(rng.Intn(100000)) / 100
		all := map[string]message.Value{
			"symbol":          message.String(symbolName(rng.Intn(spec.symbols))),
			"price":           message.Number(price),
			"class":           message.String("STOCK"),
			"open":            message.Number(price + float64(rng.Intn(200))/100),
			"high":            message.Number(price + 2 + float64(rng.Intn(200))/100),
			"low":             message.Number(price - float64(rng.Intn(200))/100),
			"close":           message.Number(price + float64(rng.Intn(100))/100),
			"date":            message.String(fmt.Sprintf("day-%d", rng.Intn(400))),
			"openClose%Diff":  message.Number(float64(rng.Intn(1000)) / 10000),
			"highLow%Diff":    message.Number(float64(rng.Intn(1000)) / 10000),
			"closeEqualsLow":  message.Bool(rng.Intn(8) == 0),
			"closeEqualsHigh": message.Bool(rng.Intn(8) == 0),
		}
		attrs := make(map[string]message.Value, spec.attrs)
		for _, k := range attrOrder[:spec.attrs] {
			attrs[k] = all[k]
		}
		table[i] = attrs
	}
	return table
}

// wireSubscriptions builds the subscriber connection's routing-table
// contribution; the settle probe's subscription goes last, so its first
// delivery proves every earlier subscription reached every broker.
func wireSubscriptions(spec *wireSpec) []*message.Subscription {
	var subs []*message.Subscription
	add := func(id string, preds ...message.Predicate) {
		subs = append(subs, message.NewSubscription(id, "sub", preds))
	}
	for s := 0; s < spec.symbols; s++ {
		for k := 0; k < spec.fan; k++ {
			add(fmt.Sprintf("eq-%03d-%02d", s, k), message.Pred("symbol", message.OpEq, message.String(symbolName(s))))
		}
	}
	for i := 0; i < spec.filler; i++ {
		if spec.fillerOnSymbol {
			add(fmt.Sprintf("tp-%04d", i),
				message.Pred("symbol", message.OpEq, message.String(symbolName(i%spec.symbols))),
				message.Pred("price", message.OpGt, message.Number(1e9+float64(i))))
		} else {
			add(fmt.Sprintf("rv-%04d", i), message.Pred("volume", message.OpGt, message.Number(float64(1000+i))))
		}
	}
	add("probe", message.Pred("symbol", message.OpEq, message.String(probeSymbol)))
	return subs
}

// deployment is one running chain with its two client connections.
type deployment struct {
	nodes []*broker.Node
	// regs holds one registry per node in a traced deployment, nil
	// otherwise.
	regs     []*telemetry.Registry
	pub, sub *client.Client
	// base is the sequence number of publication index 0; the settle
	// probes used the numbers below it.
	base int
}

// deploy starts the chain, connects the clients, registers the routing
// table and waits until a probe publication has crossed the whole chain.
func deploy(spec *wireSpec, traced bool) (*deployment, error) {
	d := &deployment{}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	for i := 0; i < spec.brokers; i++ {
		var reg *telemetry.Registry
		if traced {
			reg = telemetry.New(nil)
		}
		n, err := broker.StartNode(broker.NodeConfig{
			ID:         fmt.Sprintf("B%d", i),
			ListenAddr: "127.0.0.1:0",
			Delay:      message.MatchingDelayFn{Base: 0.001},
			Telemetry:  reg,
			// A peer that stops draining fails the write instead of
			// wedging the event loop, and with it the benchmark.
			WriteTimeout: 5 * time.Second,
		})
		if err != nil {
			return nil, fmt.Errorf("start broker %d: %w", i, err)
		}
		d.nodes = append(d.nodes, n)
		d.regs = append(d.regs, reg)
	}
	for i := 0; i+1 < len(d.nodes); i++ {
		if err := d.nodes[i].ConnectNeighbor(d.nodes[i+1].Addr()); err != nil {
			return nil, fmt.Errorf("link B%d-B%d: %w", i, i+1, err)
		}
	}
	var err error
	if d.pub, err = client.Connect("pub", d.nodes[0].Addr()); err != nil {
		return nil, fmt.Errorf("connect publisher: %w", err)
	}
	if d.sub, err = client.Connect("sub", d.nodes[len(d.nodes)-1].Addr()); err != nil {
		return nil, fmt.Errorf("connect subscriber: %w", err)
	}
	if err = d.pub.Advertise(message.NewAdvertisement(wireAdvID, "pub", nil)); err != nil {
		return nil, fmt.Errorf("advertise: %w", err)
	}
	for _, s := range wireSubscriptions(spec) {
		if err = d.sub.Subscribe(s); err != nil {
			return nil, fmt.Errorf("subscribe %s: %w", s.ID, err)
		}
	}
	// Probe until one arrives. A probe sent before the last subscription
	// has reached the head broker is dropped there, so keep sending.
	probe := map[string]message.Value{"symbol": message.String(probeSymbol)}
	deadline := time.NewTimer(spec.drainLimit)
	defer deadline.Stop()
	retry := time.NewTicker(200 * time.Microsecond)
	defer retry.Stop()
	for {
		if err = d.pub.PublishAt(&message.Publication{AdvID: wireAdvID, Seq: d.base, Attrs: probe}); err != nil {
			return nil, fmt.Errorf("publish probe: %w", err)
		}
		d.base++
		select {
		case p, open := <-d.sub.Publications():
			if !open {
				return nil, fmt.Errorf("subscriber connection closed during set-up: %v", d.sub.Err())
			}
			if !p.Attrs["symbol"].Equal(probe["symbol"]) {
				return nil, fmt.Errorf("set-up delivered %s instead of a probe", p)
			}
			ok = true
			return d, nil
		case <-retry.C:
		case <-deadline.C:
			return nil, fmt.Errorf("no probe crossed the chain within %v", spec.drainLimit)
		}
	}
}

// close disconnects the clients and stops every broker, waiting for their
// goroutines.
func (d *deployment) close() {
	if d.pub != nil {
		_ = d.pub.Close() // the connection is being torn down either way
	}
	if d.sub != nil {
		_ = d.sub.Close()
	}
	for _, n := range d.nodes {
		n.Stop()
	}
}

// brokerMsgs sums the brokers' in+out message counters, the live twin of
// the simulator's system message rate.
func (d *deployment) brokerMsgs() int {
	total := 0
	for _, n := range d.nodes {
		total += n.Counters().Total()
	}
	return total
}

// receiver consumes the subscriber connection on its own goroutine and
// checks every delivery as it arrives. Its fields belong to that
// goroutine until it has been joined.
type receiver struct {
	spec  *wireSpec
	table []map[string]message.Value
	d     *deployment
	epoch time.Time
	win   *window

	// ns and idx hold, per delivery in arrival order, the arrival time
	// since epoch and the publication index.
	ns  []int64
	idx []int32
	// next is the publication index expected next, copies how many of
	// its fan deliveries have arrived.
	next, copies int
	failed       int64
	notes        []string
	// closed is set when the connection ended under the receiver.
	closed bool
}

func (r *receiver) bad(n int64, format string, args ...any) {
	r.failed += n
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// run consumes deliveries until stop closes or the connection ends.
func (r *receiver) run(stop <-chan struct{}) {
	for {
		select {
		case p, open := <-r.d.sub.Publications():
			if !open {
				r.closed = true
				return
			}
			r.observe(p)
		case <-stop:
			return
		}
	}
}

// observe checks one delivery: publications arrive in sequence order,
// each exactly fan times, under the right advertisement, having crossed
// every broker-to-broker link, carrying what was sent.
func (r *receiver) observe(p *message.Publication) {
	i := p.Seq - r.d.base
	if i < 0 {
		return // a settle probe that was still in flight
	}
	now := time.Since(r.epoch).Nanoseconds()
	fan := r.spec.fan
	switch {
	case i > r.next:
		r.bad(int64(i-r.next)*int64(fan)-int64(r.copies),
			"publications %d..%d lost deliveries", r.next, i-1)
		r.next, r.copies = i, 0
	case i < r.next:
		r.bad(1, "publication %d delivered again or out of order (expected %d)", i, r.next)
		return
	}
	want := r.table[i%len(r.table)]
	switch {
	case p.AdvID != wireAdvID:
		r.bad(1, "publication %d arrived under advertisement %q", i, p.AdvID)
	case p.Hops != r.spec.brokers-1:
		r.bad(1, "publication %d arrived with %d hops, want %d", i, p.Hops, r.spec.brokers-1)
	case !p.Attrs["symbol"].Equal(want["symbol"]):
		r.bad(1, "publication %d arrived with symbol %s", i, p.Attrs["symbol"])
	case i%fullCheckEvery == 0 && !sameAttrs(p.Attrs, want):
		r.bad(1, "publication %d arrived with attributes %s", i, p)
	}
	r.ns = append(r.ns, now)
	r.idx = append(r.idx, int32(i))
	r.copies++
	if r.copies == fan {
		r.next, r.copies = i+1, 0
		r.win.complete(int64(r.next))
	}
}

func sameAttrs(got, want map[string]message.Value) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || !g.Equal(v) {
			return false
		}
	}
	return true
}

// phase is one stretch of generated load.
type phase struct {
	name string
	// base and end bound the publication indices sent, [base, end).
	base, end int
	// startNs and endNs bound the sending, in ns since the run's epoch;
	// an open-loop phase starts at its schedule's origin.
	startNs, endNs int64
	// tick and burst are the open-loop schedule (zero in a closed loop).
	tick  time.Duration
	burst int
	// late is the generator's lateness per tick.
	late []time.Duration
	// inPublish is the time spent inside PublishAt per publication,
	// recorded in the traced pass only.
	inPublish []float64
	// cpu is the process CPU time consumed over a closed loop's
	// measured stretch.
	cpu time.Duration
	// drained is how long after the last send the last delivery arrived
	// (negative when the deliveries never all arrived).
	drained time.Duration
	// brokerMsgs is the brokers' in+out message count over an open-loop
	// phase, drain included.
	brokerMsgs int
}

// dueNs returns when publication index i of an open-loop phase was due.
func (ph *phase) dueNs(i int) int64 {
	return ph.startNs + int64((i-ph.base)/ph.burst)*ph.tick.Nanoseconds()
}

// valid reports whether the generator kept its schedule: a phase whose
// generator ran later than one tick at p99 measured the host.
func (ph *phase) valid() bool {
	return lateQuantile(ph.late, 0.99) <= float64(ph.tick)/1e6
}

// lateQuantile returns a quantile of generator lateness in ms.
func lateQuantile(late []time.Duration, q float64) float64 {
	ms := make([]float64, len(late))
	for i, d := range late {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	return percentile(ms, q)
}

// wireRun drives one deployment through its phases. The generator is the
// calling goroutine; the receiver is the only other goroutine the
// harness adds to the measured path.
type wireRun struct {
	*pass
	spec   *wireSpec
	table  []map[string]message.Value
	d      *deployment
	win    *window
	recv   *receiver
	traced bool
	root   int

	stop chan struct{}
	done chan struct{}
	// sent is the number of publications handed to the publisher
	// connection so far.
	sent int
	// err is the first send failure; nothing is sent after it.
	err error
}

func startWireRun(p *pass, spec *wireSpec, table []map[string]message.Value, d *deployment, traced bool, root int) *wireRun {
	g := &wireRun{
		pass: p, spec: spec, table: table, d: d, win: newWindow(spec.window),
		traced: traced, root: root,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	g.recv = &receiver{
		spec: spec, table: table, d: d, epoch: p.epoch, win: g.win,
		ns:  make([]int64, 0, recvPrealloc),
		idx: make([]int32, 0, recvPrealloc),
	}
	go func() {
		defer close(g.done)
		g.recv.run(g.stop)
	}()
	return g
}

// recvPrealloc is the arrival log's capacity in deliveries, above what
// the fastest saturation phase seen here fills, so that growing it does
// not show up as a latency blip.
const recvPrealloc = 1 << 20

// finish stops the receiver and waits for it.
func (g *wireRun) finish() {
	close(g.stop)
	select {
	case <-g.done:
	case <-time.After(g.spec.drainLimit):
		dumpGoroutines("the receiver did not stop")
	}
}

// publish sends publication index g.sent.
func (g *wireRun) publish(ph *phase) {
	pub := &message.Publication{AdvID: wireAdvID, Seq: g.d.base + g.sent, Attrs: g.table[g.sent%len(g.table)]}
	var err error
	if g.traced {
		t0 := time.Now()
		err = g.d.pub.PublishAt(pub)
		ph.inPublish = append(ph.inPublish, float64(time.Since(t0).Nanoseconds()))
	} else {
		err = g.d.pub.PublishAt(pub)
	}
	if err != nil {
		g.err = fmt.Errorf("publish %d: %w", g.sent, err)
		return
	}
	g.sent++
}

// phaseHooks lets the traced pass sample the layers exactly over a
// closed loop's measured stretch.
type phaseHooks struct {
	begin, end func()
}

// closedLoop sends as fast as the in-flight window allows: first for
// warmup, unmeasured, then for dur. The two run as one loop so the
// pipeline is as full when measuring starts as when it ends, and the CPU
// spent over the stretch belongs to the deliveries counted in it.
func (g *wireRun) closedLoop(name string, warmup, dur time.Duration, hooks *phaseHooks) *phase {
	id := g.tr.start(name, g.root)
	defer g.tr.end(id)
	ph := &phase{name: name}
	begin := g.now() + warmup.Nanoseconds()
	limit := begin + dur.Nanoseconds()
	var cpu0 time.Duration
	measuring := false
	g.win.sent = int64(g.sent)
	for g.err == nil {
		now := g.now()
		if now >= limit {
			break
		}
		if !measuring && now >= begin {
			measuring = true
			if hooks != nil {
				hooks.begin()
			}
			ph.base, ph.startNs, cpu0 = g.sent, g.now(), g.cpu()
		}
		if !g.win.acquire(g.spec.drainLimit, g.done) {
			g.err = fmt.Errorf("phase %s: no delivery completed within %v with %d publications in flight",
				name, g.spec.drainLimit, g.spec.window)
			dumpGoroutines(g.err.Error())
			break
		}
		g.publish(ph)
	}
	ph.endNs = g.now()
	ph.cpu = g.cpu() - cpu0
	if hooks != nil && measuring {
		hooks.end()
	}
	ph.end = g.sent
	g.drain(ph)
	return ph
}

// openLoop sends burst publications every tick for dur on an absolute
// schedule, whether or not the system keeps up.
func (g *wireRun) openLoop(name string, dur time.Duration, burst int) *phase {
	id := g.tr.start(name, g.root)
	defer g.tr.end(id)
	ticks := int(dur / g.spec.tick)
	ph := &phase{name: name, base: g.sent, tick: g.spec.tick, burst: burst}
	msgs0 := g.d.brokerMsgs()
	pc := newPacer(wallClock{}, g.spec.tick, ticks)
	ph.startNs = pc.start.Sub(g.epoch).Nanoseconds()
	for k := 0; k < ticks && g.err == nil; k++ {
		pc.wait(k)
		for b := 0; b < burst && g.err == nil; b++ {
			g.publish(ph)
		}
	}
	ph.endNs = g.now()
	ph.late = pc.late
	ph.end = g.sent
	g.drain(ph)
	ph.brokerMsgs = g.d.brokerMsgs() - msgs0
	return ph
}

// drain waits until every publication sent so far has been delivered in
// full. A delivery still missing drainLimit after the last send is given
// up on (the receiver's final tally counts it as failed) and the
// goroutines are dumped, since the cause is then a wedge, not a delay.
func (g *wireRun) drain(ph *phase) {
	id := g.tr.start("drain", g.root)
	defer g.tr.end(id)
	if g.win.waitDone(int64(g.sent), g.spec.drainLimit, g.done) {
		ph.drained = time.Duration(g.now() - ph.endNs)
		return
	}
	ph.drained = -1
	select {
	case <-g.done: // the connection ended under the receiver; tally reports it
	default:
		dumpGoroutines(fmt.Sprintf("phase %s: %d of %d publications delivered %v after the last send",
			ph.name, g.win.done.Load(), g.sent, g.spec.drainLimit))
	}
}

func dumpGoroutines(why string) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	fmt.Fprintf(os.Stderr, "bench: %s; goroutines:\n%s\n", why, buf)
}

// arrivals returns the arrival times of the deliveries that landed in
// [startNs, endNs).
func (r *receiver) arrivals(startNs, endNs int64) []int64 {
	lo := sort.Search(len(r.ns), func(i int) bool { return r.ns[i] >= startNs })
	hi := sort.Search(len(r.ns), func(i int) bool { return r.ns[i] >= endNs })
	return r.ns[lo:hi]
}

// latenciesMs returns, in ascending order, the delivery latency of every
// delivery of an open-loop phase, each timed from its tick's due time.
func (r *receiver) latenciesMs(ph *phase) []float64 {
	lo := sort.Search(len(r.idx), func(i int) bool { return int(r.idx[i]) >= ph.base })
	hi := sort.Search(len(r.idx), func(i int) bool { return int(r.idx[i]) >= ph.end })
	out := make([]float64, 0, hi-lo)
	for k := lo; k < hi; k++ {
		out = append(out, float64(r.ns[k]-ph.dueNs(int(r.idx[k])))/1e6)
	}
	sort.Float64s(out)
	return out
}

// tally folds the receiver's checks into the result once it has stopped:
// every delivery expected of the publications sent is one attempted
// operation, and every one lost, duplicated, reordered or altered is a
// failed one.
func (g *wireRun) tally() {
	r, res := g.recv, g.res
	res.Attempted += int64(g.sent) * int64(g.spec.fan)
	if missing := int64(g.sent-r.next)*int64(g.spec.fan) - int64(r.copies); missing > 0 {
		r.bad(missing, "publications %d..%d never fully delivered", r.next, g.sent-1)
	}
	if r.closed {
		r.bad(1, "the subscriber connection closed: %v", g.d.sub.Err())
	}
	res.Notes = append(res.Notes, r.notes...)
	res.Failed += r.failed
	if g.err != nil {
		res.check(false, "%v", g.err)
	}
}

// saturation reports a closed loop's measured stretch: deliveries per
// second as the median over rateWindow buckets, and process CPU per
// delivery, both raw: the caller normalises them by the host speed over
// the stretch.
func (g *wireRun) saturation(sat *phase) (rate, cpuUs float64, windows int) {
	delivered := g.recv.arrivals(sat.startNs, sat.endNs)
	rate, windows = windowRate(delivered, sat.startNs, sat.endNs, g.spec.rateWindow.Nanoseconds())
	if len(delivered) > 0 {
		cpuUs = float64(sat.cpu.Microseconds()) / float64(len(delivered))
	}
	return rate, cpuUs, windows
}

// runWire runs one pass of a wire workload.
func runWire(p *pass, spec wireSpec, seconds float64) error {
	table := newPubTable(&spec, p.res.Seed)
	if p.res.Traced {
		return runWireTraced(p, &spec, table, seconds)
	}
	res := p.res
	root := p.tr.start(spec.name, 0)
	defer p.tr.end(root)

	// Set up several times; the median is setup_s and the last
	// deployment carries the traffic. Set-up is timed on the process CPU
	// clock (see pass.setupTime).
	var d *deployment
	var setups []float64
	first := p.now()
	for i := 0; i < spec.setups; i++ {
		if d != nil {
			d.close()
		}
		var err error
		_, raw := p.setupTime(func() { d, err = deploy(&spec, false) })
		if err != nil {
			return err
		}
		setups = append(setups, raw)
	}
	defer d.close()
	// One set-up is too short to hold enough speed samples of its own;
	// the whole series shares one.
	res.setRaw("setup_s", median(setups)*p.cal.speedOver(first, p.now()), median(setups))

	half := time.Duration(seconds / 2 * float64(time.Second))
	g := startWireRun(p, &spec, table, d, false, root)
	sat := g.closedLoop("saturation", spec.warmup, half, nil)
	cruise := g.openLoop("cruise", half, spec.burst)
	g.finish()
	g.tally()

	rate, cpuUs, windows := g.saturation(sat)
	speed := p.cal.speedOver(sat.startNs, sat.endNs)
	res.setRaw("op_rate", rate/speed, rate)
	res.Samples["op_rate"] = windows
	res.setRaw("cpu_us_per_op", cpuUs*speed, cpuUs)

	lat := g.recv.latenciesMs(cruise)
	speed = p.cal.speedOver(cruise.startNs, cruise.endNs)
	res.setRaw("wait_p50_ms", percentile(lat, 0.50)*speed, percentile(lat, 0.50))
	res.Samples["wait_p50_ms"] = len(lat)
	if !cruise.valid() {
		res.Invalid = append(res.Invalid, fmt.Sprintf("cruise: generator p99 lateness %.3f ms exceeds the %v tick",
			lateQuantile(cruise.late, 0.99), spec.tick))
	}
	res.set("brokers", float64(spec.brokers))
	if span := float64(cruise.endNs-cruise.startNs)/1e9 + cruise.drained.Seconds(); span > 0 {
		res.set("msg_rate", float64(cruise.brokerMsgs)/span)
	}
	res.set("peak_rss_mb", peakRSSMB())
	return nil
}
