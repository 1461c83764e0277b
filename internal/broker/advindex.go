package broker

import (
	"slices"

	"github.com/greenps/greenps/internal/message"
)

// advIndex holds the advertisements that arrived over broker links and
// finds those a subscription may intersect by the equalities they state.
// Two equalities on one attribute exclude each other only when both are
// strings, or both are non-NaN numbers, and they differ
// (message.PredicatesIntersect); a bool, a NaN, a mix of kinds or an
// advertisement without the attribute excludes nothing. So when every
// indexed advertisement states a string equality on an attribute, a
// subscription's string equality there can intersect only the
// advertisements that state its value, and likewise for numbers.
type advIndex struct {
	all   []advEntry
	attrs map[string]*advAttr
}

// advAttr indexes the excluding equalities the advertisements state on
// one attribute: the advertisements stating each value, each listed once
// under a value however often it states it, and how many advertisements
// state at least one of each kind.
type advAttr struct {
	str        map[string][]advEntry
	num        map[float64][]advEntry
	strs, nums int
}

// excludes reports whether p is an equality that excludes every equality
// of its kind on another value: one on a string or a non-NaN number.
func excludes(p *message.Predicate) bool {
	return p.Op == message.OpEq && (p.Value.Kind == message.KindString || p.Value.Kind == message.KindNumber && p.Value.Num == p.Value.Num)
}

// update adds entry to the index, or with add false removes it.
func (ix *advIndex) update(entry advEntry, add bool) {
	step := 1
	if add {
		ix.all = append(ix.all, entry)
	} else {
		step = -1
		ix.all = slices.DeleteFunc(ix.all, func(e advEntry) bool { return e.adv == entry.adv })
	}
	preds := entry.adv.Predicates
	for i := range preds {
		p := &preds[i]
		// Each advertisement counts once per attribute and kind, and is
		// listed once per value.
		firstKind, firstValue := excludes(p), excludes(p)
		for j := range preds[:i] {
			if q := &preds[j]; excludes(q) && q.Attr == p.Attr && q.Value.Kind == p.Value.Kind {
				firstKind = false
				firstValue = firstValue && !q.Value.Equal(p.Value)
			}
		}
		if !firstValue {
			continue
		}
		at := ix.attrs[p.Attr]
		if at == nil {
			at = &advAttr{str: make(map[string][]advEntry), num: make(map[float64][]advEntry)}
			ix.attrs[p.Attr] = at
		}
		if p.Value.Kind == message.KindString {
			if firstKind {
				at.strs += step
			}
			relist(at.str, p.Value.Str, entry, add)
		} else {
			if firstKind {
				at.nums += step
			}
			relist(at.num, p.Value.Num, entry, add)
		}
		if len(at.str) == 0 && len(at.num) == 0 {
			delete(ix.attrs, p.Attr)
		}
	}
}

// relist appends entry to the list of value k, or with add false removes
// it, dropping a list it empties.
func relist[K comparable](lists map[K][]advEntry, k K, entry advEntry, add bool) {
	if add {
		lists[k] = append(lists[k], entry)
	} else if l := slices.DeleteFunc(lists[k], func(e advEntry) bool { return e.adv == entry.adv }); len(l) > 0 {
		lists[k] = l
	} else {
		delete(lists, k)
	}
}

// candidates returns a superset of the indexed advertisements that may
// intersect sub: the shortest list of those stating the value of one of
// its excluding equalities on an attribute where every advertisement
// states one of that kind, or all of them when it has no such equality.
func (ix *advIndex) candidates(sub *message.Subscription) []advEntry {
	best, found := ix.all, false
	for i := range sub.Predicates {
		p := &sub.Predicates[i]
		if !excludes(p) {
			continue
		}
		var list []advEntry
		switch at := ix.attrs[p.Attr]; {
		case at == nil:
			continue
		case p.Value.Kind == message.KindString && at.strs == len(ix.all):
			list = at.str[p.Value.Str]
		case p.Value.Kind == message.KindNumber && at.nums == len(ix.all):
			list = at.num[p.Value.Num]
		default:
			continue
		}
		if !found || len(list) < len(best) {
			best, found = list, true
		}
	}
	return best
}
