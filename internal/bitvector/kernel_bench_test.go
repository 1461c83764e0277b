package bitvector

import (
	"fmt"
	"testing"
)

// benchVector sets every stride-th bit of a full-capacity window starting
// at the given first ID.
func benchVector(capacity, first, stride int) *Vector {
	v := New(capacity)
	for i := 0; i < capacity; i += stride {
		v.Set(first + i)
	}
	v.Observe(first + capacity - 1)
	return v
}

// BenchmarkKernelCounts runs AndCount over full windows 13 IDs apart at two
// densities; the loop is branch-free, so the two should read the same.
func BenchmarkKernelCounts(b *testing.B) {
	for _, de := range []struct {
		name   string
		stride int
	}{
		{"dense", 2},
		{"sparse", 37},
	} {
		x := benchVector(DefaultCapacity, 0, de.stride)
		y := benchVector(DefaultCapacity, 13, de.stride)
		b.Run("And/"+de.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AndCount(x, y)
			}
		})
	}
}

// BenchmarkCloseness measures full profile-level pair evaluations — the
// unit of work CRAM's partner searches and the poset spend — across
// publisher counts, with coinciding windows (the common case after Sync).
// Every arm is one IntersectCount walk plus arithmetic on cached popcounts,
// so XOR, IOU and Relate should read within a few ns of INTERSECT.
func BenchmarkCloseness(b *testing.B) {
	arms := []struct {
		name string
		fn   func(a, b *Profile)
	}{
		{"INTERSECT", func(a, b *Profile) { Closeness(MetricIntersect, a, b) }},
		{"XOR", func(a, b *Profile) { Closeness(MetricXor, a, b) }},
		{"IOU", func(a, b *Profile) { Closeness(MetricIOU, a, b) }},
		{"Relate", func(a, b *Profile) { Relate(a, b) }},
	}
	for _, arm := range arms {
		for _, pubs := range []int{1, 4, 16} {
			pa := NewProfile(DefaultCapacity)
			pb := NewProfile(DefaultCapacity)
			for p := 0; p < pubs; p++ {
				adv := fmt.Sprintf("adv%02d", p)
				for i := 0; i < DefaultCapacity; i += 3 {
					pa.Record(adv, i)
				}
				for i := 0; i < DefaultCapacity; i += 5 {
					pb.Record(adv, i)
				}
				pa.Vector(adv).Observe(DefaultCapacity - 1)
				pb.Vector(adv).Observe(DefaultCapacity - 1)
			}
			b.Run(fmt.Sprintf("%s/pubs-%d", arm.name, pubs), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					arm.fn(pa, pb)
				}
			})
		}
	}
}

// BenchmarkClosenessUpperBound measures the summary bound the pruning pays
// instead of an exact evaluation — the pruning only wins because this is
// orders of magnitude cheaper than BenchmarkCloseness.
func BenchmarkClosenessUpperBound(b *testing.B) {
	for _, pubs := range []int{1, 4, 16} {
		pa := NewProfile(DefaultCapacity)
		pb := NewProfile(DefaultCapacity)
		for p := 0; p < pubs; p++ {
			adv := fmt.Sprintf("adv%02d", p)
			for i := 0; i < DefaultCapacity; i += 3 {
				pa.Record(adv, i)
			}
			for i := 0; i < DefaultCapacity; i += 5 {
				pb.Record(adv, i)
			}
		}
		sa, sb := Summarize(pa), Summarize(pb)
		b.Run(fmt.Sprintf("pubs-%d", pubs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ClosenessUpperBound(MetricIOU, sa, sb)
			}
		})
	}
}
