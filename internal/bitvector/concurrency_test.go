package bitvector

import (
	"sync"
	"testing"
)

// TestConcurrentReaders exercises the documented read-concurrency contract:
// once profiles stop mutating, every pure-read function may run from many
// goroutines at once. Run with -race to validate.
func TestConcurrentReaders(t *testing.T) {
	const capacity = 256
	a := NewProfile(capacity)
	b := NewProfile(capacity)
	for i := 0; i < 200; i += 2 {
		a.Record("P1", i)
		b.Record("P1", i+1)
	}
	for i := 50; i < 150; i += 3 {
		a.Record("P2", i)
		b.Record("P2", i)
	}
	stats := map[string]*PublisherStats{
		"P1": {AdvID: "P1", Rate: 10, Bandwidth: 1000, LastSeq: 199},
		"P2": {AdvID: "P2", Rate: 5, Bandwidth: 250, LastSeq: 199},
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = Closeness(MetricIntersect, a, b)
				_ = Closeness(MetricXor, a, b)
				_ = Closeness(MetricIOS, a, b)
				_ = Closeness(MetricIOU, a, b)
				_ = Relate(a, b)
				_ = IntersectCount(a, b)
				_ = DiffCount(a, b)
				_ = XorProfileCount(a, b)
				_ = EstimateLoad(a, stats)
				_ = IntersectLoad(a, b, stats)
				_ = a.Count()
				_ = a.FingerprintKey()
				_ = a.Clone()
				m := NewProfile(capacity)
				m.Or(a)
				m.Or(b)
			}
		}()
	}
	wg.Wait()
}
