// Package extsort implements external sorting of variable-length byte
// records under an explicit memory budget: records accumulate in an
// in-memory arena, each arena overflow is sorted and written to a
// temporary run file, and the final iteration k-way-merges the on-disk
// runs with the in-memory tail (the vdbesort idiom: SQLite's sorter does
// exactly this for CREATE INDEX). CRAM's seed-phase candidate generation
// spills through this package when the candidate working set exceeds its
// configured budget; any other producer of too-many-sorted-things can use
// it the same way.
//
// Determinism contract: the merged order is exactly the order a stable
// in-memory sort of all added records under Config.Less would produce,
// regardless of how many runs spilled or where the budget boundaries
// fell. Ties under Less are broken by addition order (runs are created in
// addition order and the merge prefers the earlier source on equal
// records), so producers whose Less is a strict total order get identical
// output either way, and producers with a partial order still get a
// reproducible one.
//
// Buffers: each run is written and read back through one ioBufSize bufio
// window, each run reader decodes into a record slice it owns and reuses,
// the arena is recycled across spills, and the record returned by
// Iterator.Next is owned by the iterator — it is valid until the next
// Next or Close call and must be copied to outlive it.
package extsort

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"sort"
)

// Config parameterizes a Sorter.
type Config struct {
	// Less reports whether record a must sort before record b. Nil means
	// ascending bytes.Compare. It must be a strict weak order and is
	// called from Add's spill path and the merge, never concurrently.
	Less func(a, b []byte) bool
	// MemBudget caps the bytes of buffered record payload (headers
	// included) before the arena is sorted and spilled to a run file.
	// 0 means DefaultMemBudget; values below MinMemBudget are raised to
	// it so a single oversized record cannot wedge the sorter.
	MemBudget int
	// Dir receives the temporary run files ("" = os.TempDir()).
	Dir string
}

const (
	// DefaultMemBudget is the arena cap when Config.MemBudget is 0.
	DefaultMemBudget = 64 << 20
	// MinMemBudget is the smallest honored arena cap.
	MinMemBudget = 4 << 10
	// maxRecordLen bounds one record; Add rejects anything bigger, and a
	// run header claiming more is a corrupt run.
	maxRecordLen = 1 << 20
	// ioBufSize is the buffered-I/O window of a run writer or reader.
	ioBufSize = 64 << 10
)

// Sorter accumulates records and hands out a merged iterator. Not safe
// for concurrent use.
type Sorter struct {
	cfg    Config
	arena  []byte // concatenated record payloads of the current batch
	offs   []recRef
	runs   []*os.File // spilled runs, in spill order
	n      int        // total records added
	sorted bool       // Sort was called; Add is no longer legal
}

// recRef locates one record in the arena.
type recRef struct {
	off, len int
}

// NewSorter returns a Sorter with the given configuration.
func NewSorter(cfg Config) *Sorter {
	if cfg.Less == nil {
		cfg.Less = func(a, b []byte) bool { return bytes.Compare(a, b) < 0 }
	}
	if cfg.MemBudget == 0 {
		cfg.MemBudget = DefaultMemBudget
	}
	if cfg.MemBudget < MinMemBudget {
		cfg.MemBudget = MinMemBudget
	}
	return &Sorter{cfg: cfg}
}

// Len returns the number of records added so far.
func (s *Sorter) Len() int { return s.n }

// Runs returns the number of on-disk runs spilled so far (0 while the
// working set has stayed within the budget).
func (s *Sorter) Runs() int { return len(s.runs) }

// Add buffers one record, spilling the arena to a sorted run first when
// the record would push it past the memory budget. The record is copied;
// the caller keeps ownership of rec.
func (s *Sorter) Add(rec []byte) error {
	if s.sorted {
		return fmt.Errorf("extsort: Add after Sort")
	}
	if len(rec) > maxRecordLen {
		return fmt.Errorf("extsort: record of %d bytes exceeds the %d-byte limit", len(rec), maxRecordLen)
	}
	need := len(rec) + recHeaderLen(len(rec))
	if len(s.arena)+need > s.cfg.MemBudget && len(s.offs) > 0 {
		if err := s.spill(); err != nil {
			return err
		}
	}
	off := len(s.arena)
	s.arena = append(s.arena, rec...)
	s.offs = append(s.offs, recRef{off: off, len: len(rec)})
	s.n++
	return nil
}

// recHeaderLen is the on-disk header size of a record of n payload bytes
// (uvarint length prefix).
func recHeaderLen(n int) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], uint64(n))
}

// sortArena stable-sorts the current batch in place (by reference — the
// payload bytes never move).
func (s *Sorter) sortArena() {
	arena, less := s.arena, s.cfg.Less
	sort.SliceStable(s.offs, func(i, j int) bool {
		a, b := s.offs[i], s.offs[j]
		return less(arena[a.off:a.off+a.len], arena[b.off:b.off+b.len])
	})
}

// spill sorts the arena and writes it out as one run file, then recycles
// the arena for the next batch.
func (s *Sorter) spill() error {
	f, err := os.CreateTemp(s.cfg.Dir, "extsort-*.run")
	if err != nil {
		return fmt.Errorf("extsort: create run: %w", err)
	}
	return s.spillTo(f)
}

// spillTo is spill onto an already created run file. On a write error the
// file is closed and removed; on success it stays open — the merge reads
// it back through a runReader.
func (s *Sorter) spillTo(f *os.File) error {
	s.sortArena()
	w := bufio.NewWriterSize(f, ioBufSize)
	var hdr [binary.MaxVarintLen64]byte
	for _, r := range s.offs {
		// A bufio.Writer's first error sticks and Flush returns it.
		w.Write(hdr[:binary.PutUvarint(hdr[:], uint64(r.len))])
		w.Write(s.arena[r.off : r.off+r.len])
	}
	if err := w.Flush(); err != nil {
		cleanupRun(f)
		return fmt.Errorf("extsort: write run: %w", err)
	}
	s.runs = append(s.runs, f)
	s.arena = s.arena[:0]
	s.offs = s.offs[:0]
	return nil
}

// cleanupRun closes and removes a run file.
func cleanupRun(f *os.File) {
	name := f.Name()
	f.Close()
	os.Remove(name)
}

// Sort finishes the adding phase and returns the merged iterator. The
// final in-memory batch is sorted in place and merged as the last source,
// so a Sorter that never exceeded its budget touches no disk at all. The
// iterator owns the Sorter's runs and buffers; Close it to release them.
func (s *Sorter) Sort() (*Iterator, error) {
	if s.sorted {
		return nil, fmt.Errorf("extsort: Sort called twice")
	}
	s.sorted = true
	s.sortArena()
	it := &Iterator{sorter: s}
	srcs := make([]*mergeSrc, 0, len(s.runs)+1)
	for i, f := range s.runs {
		r, err := openRunReader(f)
		if err != nil {
			it.Close()
			return nil, err
		}
		srcs = append(srcs, &mergeSrc{seq: i, r: r})
	}
	if len(s.offs) > 0 {
		// The in-memory tail holds the records added last, so it merges
		// as the highest sequence number: ties under Less resolve to the
		// earlier batch, matching a stable sort of the full input.
		srcs = append(srcs, &mergeSrc{seq: len(s.runs), mem: s, memIdx: -1})
	}
	for _, src := range srcs {
		if err := it.advance(src); err != nil {
			it.Close()
			return nil, err
		}
		if !src.done {
			it.heap = append(it.heap, src)
		}
	}
	it.heapInit()
	return it, nil
}
