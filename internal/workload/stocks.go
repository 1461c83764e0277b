// Package workload generates the evaluation workload of Section VI-A:
// stock-quote publications and the paper's two-template subscription mix,
// plus the scenario builders for every experiment scale (cluster
// homogeneous/heterogeneous, SciNet large-scale, and the
// every-broker-subscribed adversarial case of Section II-B).
//
// The paper replays real Yahoo! Finance daily quotes; this package
// substitutes a seeded geometric random walk with per-symbol volatility and
// volume regimes. The substitution preserves what the paper needed from
// the data: values that follow no clean, well-defined distribution, making
// the bit-vector framework's distribution-independence do real work.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/greenps/greenps/internal/message"
)

// Quote is one synthetic daily stock quote.
type Quote struct {
	Date   string
	Open   float64
	High   float64
	Low    float64
	Close  float64
	Volume float64
}

// Stock is a symbol with its generated daily history.
type Stock struct {
	Symbol string
	Days   []Quote
}

// GenerateStock produces a deterministic synthetic price history: a
// geometric random walk with per-symbol drift, volatility, and volume
// scale drawn from the seed.
func GenerateStock(seed int64, symbol string, days int) *Stock {
	rng := rand.New(rand.NewSource(seed ^ int64(hashString(symbol))))
	price := 5 + float64(rng.Float64()*195) // starting price $5..$200
	// The inlined Float64 is itself a product, so it is rounded before the
	// subtraction too (DESIGN.md §8).
	drift := float64((float64(rng.Float64()) - 0.5) * 0.002)
	vol := 0.005 + float64(rng.Float64()*0.03)
	volScale := math.Exp(8 + float64(rng.Float64()*6)) // ~3k..3.3M shares
	st := &Stock{Symbol: symbol, Days: make([]Quote, 0, days)}
	for d := 0; d < days; d++ {
		open := price
		// Intraday extremes around the close.
		ret := drift + float64(vol*rng.NormFloat64())
		closeP := open * math.Exp(ret)
		hi := math.Max(open, closeP) * (1 + float64(vol*math.Abs(rng.NormFloat64())*0.5))
		lo := math.Min(open, closeP) * (1 - float64(vol*math.Abs(rng.NormFloat64())*0.5))
		volume := volScale * math.Exp(0.5*rng.NormFloat64())
		st.Days = append(st.Days, Quote{
			Date:   fmt.Sprintf("day-%d", d),
			Open:   round2(open),
			High:   round2(hi),
			Low:    round2(lo),
			Close:  round2(closeP),
			Volume: math.Floor(volume),
		})
		price = closeP
	}
	return st
}

func round2(f float64) float64 { return math.Round(f*100) / 100 }

// hashString is a small FNV-1a so symbols perturb the seed.
func hashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Publication renders day d of the stock as a publication with the paper's
// exact attribute schema, including the derived attributes.
func (s *Stock) Publication(advID string, seq int, day int) *message.Publication {
	q := s.Days[day%len(s.Days)]
	openCloseDiff := 0.0
	if q.Open != 0 {
		openCloseDiff = round4((q.Close - q.Open) / q.Open)
	}
	highLowDiff := 0.0
	if q.Low != 0 {
		highLowDiff = round4((q.High - q.Low) / q.Low)
	}
	return message.NewPublication(advID, seq, map[string]message.Value{
		"class":          message.String("STOCK"),
		"symbol":         message.String(s.Symbol),
		"open":           message.Number(q.Open),
		"high":           message.Number(q.High),
		"low":            message.Number(q.Low),
		"close":          message.Number(q.Close),
		"volume":         message.Number(q.Volume),
		"date":           message.String(q.Date),
		"openClose%Diff": message.Number(openCloseDiff),
		"highLow%Diff":   message.Number(highLowDiff),
		"closeEqualsLow": message.Bool(q.Close == q.Low),
		"closeEqualsHigh": message.Bool(
			q.Close == q.High),
	})
}

func round4(f float64) float64 { return math.Round(f*10000) / 10000 }

// Advertisement returns the advertisement covering this stock's
// publications.
func (s *Stock) Advertisement(advID, publisherID string) *message.Advertisement {
	return message.NewAdvertisement(advID, publisherID, []message.Predicate{
		message.Pred("class", message.OpEq, message.String("STOCK")),
		message.Pred("symbol", message.OpEq, message.String(s.Symbol)),
	})
}

// inequalityAttrs are the numeric attributes the 60% template constrains.
var inequalityAttrs = []string{"open", "high", "low", "close", "volume"}

// Subscriptions generates count subscriptions for this stock per the
// paper's mix: 40% subscribe to the bare [class,=,'STOCK'],[symbol,=,S]
// template; 60% add one inequality predicate on a numeric attribute whose
// threshold is drawn from the stock's own observed range (so selectivities
// vary over the whole [0,1] spectrum).
func (s *Stock) Subscriptions(seed int64, idPrefix string, count int) []*message.Subscription {
	rng := rand.New(rand.NewSource(seed ^ int64(hashString(s.Symbol)) ^ 0x5ab))
	out := make([]*message.Subscription, 0, count)
	for i := 0; i < count; i++ {
		id := fmt.Sprintf("%s-%d", idPrefix, i)
		preds := []message.Predicate{
			message.Pred("class", message.OpEq, message.String("STOCK")),
			message.Pred("symbol", message.OpEq, message.String(s.Symbol)),
		}
		if i%5 >= 2 { // 60%
			attr := inequalityAttrs[rng.Intn(len(inequalityAttrs))]
			lo, hi := s.rangeOf(attr)
			v := lo + float64(rng.Float64()*(hi-lo))
			ops := []message.Op{message.OpLt, message.OpLe, message.OpGt, message.OpGe}
			preds = append(preds, message.Pred(attr, ops[rng.Intn(len(ops))], message.Number(round2(v))))
		}
		out = append(out, message.NewSubscription(id, "client-"+id, preds))
	}
	return out
}

// rangeOf returns the observed [min,max] of an attribute over the history.
func (s *Stock) rangeOf(attr string) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, q := range s.Days {
		var v float64
		switch attr {
		case "open":
			v = q.Open
		case "high":
			v = q.High
		case "low":
			v = q.Low
		case "close":
			v = q.Close
		case "volume":
			v = q.Volume
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
