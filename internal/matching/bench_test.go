package matching

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/greenps/greenps/internal/message"
)

// benchTables are the routing tables the engine is timed and pinned on,
// each with a publication that hits it.
var benchTables = []struct {
	name  string
	build func(add func(id string, preds ...message.Predicate)) *message.Publication
}{
	// The paper's table: every subscription names the class, one of 40
	// symbols and, three in five, a bound on low.
	{"paper8000", func(add func(string, ...message.Predicate)) *message.Publication {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 8000; i++ {
			preds := []message.Predicate{message.Pred("class", eq, message.String("STOCK")),
				message.Pred("symbol", eq, message.String(fmt.Sprintf("SYM%02d", i%40)))}
			if i%5 >= 2 {
				preds = append(preds, message.Pred("low", message.OpLt, message.Number(rng.Float64()*100)))
			}
			add(fmt.Sprintf("s%d", i), preds...)
		}
		return pub("SYM07", 50, 1000)
	}},
	// bench's wire_fanout16: 16 subscribers per symbol beside 5,000
	// fillers on the same symbols with a price out of reach, and a
	// 12-attribute publication.
	{"fanout16", func(add func(string, ...message.Predicate)) *message.Publication {
		sym := func(s int) message.Predicate {
			return message.Pred("symbol", eq, message.String(fmt.Sprintf("SYM%03d", s)))
		}
		for i := 0; i < 1600; i++ {
			add(fmt.Sprintf("eq-%04d", i), sym(i/16))
		}
		for i := 0; i < 5000; i++ {
			add(fmt.Sprintf("tp-%04d", i), sym(i%100), message.Pred("price", gt, message.Number(1e9+float64(i))))
		}
		attrs := map[string]message.Value{"symbol": message.String("SYM007"), "class": message.String("STOCK"),
			"date": message.String("day-1"), "closeEqualsLow": message.Bool(false), "closeEqualsHigh": message.Bool(true)}
		for i, k := range []string{"price", "open", "high", "low", "close", "openClose%Diff", "highLow%Diff"} {
			attrs[k] = message.Number(100 + float64(i))
		}
		return message.NewPublication("ADV-T", 1, attrs)
	}},
	// internal/broker's throughput table: five subscribers per symbol
	// beside 200 ranges over an attribute the publication lacks.
	{"throughput", func(add func(string, ...message.Predicate)) *message.Publication {
		for i := 0; i < 500; i++ {
			add(fmt.Sprintf("sub-%03d", i), message.Pred("symbol", eq, message.String(fmt.Sprintf("SYM%03d", i/5))))
		}
		for i := 0; i < 200; i++ {
			add(fmt.Sprintf("sub-vol-%03d", i), message.Pred("volume", gt, message.Number(float64(1000+i))))
		}
		return message.NewPublication("ADV-T", 1, map[string]message.Value{
			"symbol": message.String("SYM007"), "price": message.Number(7.5)})
	}},
}

// buildTable indexes one bench table and returns the engine's input too.
func buildTable(tb testing.TB, i int) (*CountingEngine, []*message.Subscription, []*message.Publication) {
	e := NewCountingEngine()
	var subs []*message.Subscription
	p := benchTables[i].build(func(id string, preds ...message.Predicate) {
		subs = append(subs, mustAdd(tb, e, id, preds...))
	})
	return e, subs, []*message.Publication{p}
}

// BenchmarkMatch8000Subs times one publication through MatchBatch, the
// call the broker makes, on each bench table.
func BenchmarkMatch8000Subs(b *testing.B) {
	for i, table := range benchTables {
		b.Run(table.name, func(b *testing.B) {
			e, _, pubs := buildTable(b, i)
			hits := 0
			count := func(int, *message.Subscription) { hits++ }
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				e.MatchBatch(pubs, count)
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		})
	}
}

// mallocs counts the heap objects one call of f allocates — the call
// itself, with no warm-up before it, which testing.AllocsPerRun makes.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestMatchBatchAllocationFree pins the match path at zero allocations on
// every bench table, the first match after an Add that interned a new
// attribute included, and Add at one compiled-predicate slice per
// subscription beside the amortized growth of the index.
func TestMatchBatchAllocationFree(t *testing.T) {
	for i, table := range benchTables {
		e, subs, pubs := buildTable(t, i)
		count := func(int, *message.Subscription) {}
		for k := 0; k < 3; k++ {
			if n := mallocs(func() { e.MatchBatch(pubs, count) }); n != 0 {
				t.Errorf("%s: match %d allocated %d objects, want 0", table.name, k, n)
			}
			fresh := fmt.Sprintf("fresh-%d", k)
			pubs[0].Attrs[fresh] = message.Number(1)
			mustAdd(t, e, fresh, message.Pred(fresh, gt, message.Number(0)))
		}
		perAdd := testing.AllocsPerRun(3, func() {
			e := NewCountingEngine()
			for _, s := range subs {
				_ = e.Add(s)
			}
		}) / float64(len(subs))
		if perAdd > 1.1 {
			t.Errorf("%s: Add allocates %.3f objects per subscription, want at most 1.1", table.name, perAdd)
		}
	}
}
