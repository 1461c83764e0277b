package allocation

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"github.com/greenps/greenps/internal/extsort"
)

// This file implements the seed-phase candidate spill (DESIGN.md §14).
// With SpillBudgetBytes set, the seed candidates — one per initial GIF,
// the bulk of the candidate working set at million-subscription scale —
// are encoded as order-preserving byte records and fed to an external
// sorter instead of the heap; past the budget the sorter writes sorted
// runs to temp files. The clustering loop then consumes the merged
// stream head-to-head with the heap that receives every post-seed
// candidate.
//
// The candidate pop sequence is identical to the pure-heap run. A GIF's
// seed record stands for its candidate while the GIF is seeded; its first
// re-search moves its candidate to the heap, and the loop skips the record.
// So the stream and the heap together hold at most one candidate per GIF,
// on which the record encoding's ascending bytes.Compare coincides with the
// heap's (closeness desc, GIF ID asc) strict total order, and the loop
// always takes the higher-priority of {stream head, heap top}.

// encodeCand appends cd's order-preserving record to dst:
//
//	8 bytes  big-endian ^Float64bits(closeness)
//	n bytes  the GIF's ID, NUL terminator
//	m bytes  the partner's ID
//
// Closeness is always positive for pushed candidates, and for positive
// floats the IEEE-754 bit pattern is monotone — complementing it makes
// ascending byte order descending closeness order. GIF IDs ("g<n>") never
// contain NUL, and the NUL terminator sorts before any ID byte, so the
// record order on equal closeness is Go's bytewise string comparison of the
// GIF IDs. The partner's ID is there to be decoded: the records name
// distinct GIFs, so the order never reaches it.
func encodeCand(dst []byte, cd candidate) []byte {
	bits := ^math.Float64bits(cd.closeness)
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], bits)
	dst = append(dst, key[:]...)
	dst = append(dst, cd.g.id...)
	dst = append(dst, 0)
	dst = append(dst, cd.p.id...)
	return dst
}

// decodeCand inverts encodeCand, resolving the record's two IDs in seed, the
// seed phase's GIFs in ID order: every spilled candidate names two of them,
// dropped ones included.
func decodeCand(rec []byte, seed []*gif) (candidate, error) {
	if len(rec) < 9 {
		return candidate{}, fmt.Errorf("allocation: short candidate record (%d bytes)", len(rec))
	}
	rest := rec[8:]
	i := bytes.IndexByte(rest, 0)
	if i < 0 {
		return candidate{}, fmt.Errorf("allocation: candidate record missing ID separator")
	}
	g, okG := gifIndex(seed, string(rest[:i]))
	p, okP := gifIndex(seed, string(rest[i+1:]))
	if !okG || !okP {
		return candidate{}, fmt.Errorf("allocation: candidate record %q names a GIF the seed phase did not hold", rest)
	}
	return candidate{g: seed[g], p: seed[p], closeness: math.Float64frombits(^binary.BigEndian.Uint64(rec[:8]))}, nil
}

// candSpill owns the external sorter, the merged stream, and its
// current head candidate.
type candSpill struct {
	seed   []*gif // the seed phase's GIFs in ID order, which records name
	sorter *extsort.Sorter
	it     *extsort.Iterator
	head   candidate
	headOK bool
	enc    []byte // reused encode scratch
	runs   int    // runs spilled, captured at finish
}

func newCandSpill(budget int, dir string, seed []*gif) *candSpill {
	return &candSpill{seed: seed, sorter: extsort.NewSorter(extsort.Config{MemBudget: budget, Dir: dir})}
}

// add encodes one seed candidate into the sorter.
func (s *candSpill) add(cd candidate) error {
	s.enc = encodeCand(s.enc[:0], cd)
	return s.sorter.Add(s.enc)
}

// finish seals the sorter, starts the merged stream, and loads its
// first head.
func (s *candSpill) finish() error {
	s.runs = s.sorter.Runs()
	it, err := s.sorter.Sort()
	if err != nil {
		return err
	}
	s.it = it
	return s.advance()
}

// advance loads the next stream record into head; headOK goes false at
// the clean end of the stream.
func (s *candSpill) advance() error {
	rec, ok, err := s.it.Next()
	if err != nil {
		return err
	}
	if !ok {
		s.headOK = false
		return nil
	}
	cd, err := decodeCand(rec, s.seed)
	if err != nil {
		return err
	}
	s.head, s.headOK = cd, true
	return nil
}

// close releases the stream and its temp files; safe on a spill whose
// finish never ran or failed (the sorter is sealed just to reach the
// iterator's cleanup).
func (s *candSpill) close() {
	if s == nil {
		return
	}
	if s.it == nil && s.sorter != nil {
		if it, err := s.sorter.Sort(); err == nil {
			s.it = it
		}
	}
	if s.it != nil {
		s.it.Close()
	}
	s.sorter = nil
}
