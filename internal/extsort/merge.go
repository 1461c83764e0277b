package extsort

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Run file format: a flat sequence of records, each a uvarint payload
// length followed by the payload bytes. No framing beyond that — a run
// is complete by construction (it is written and flushed in one spill)
// and read exactly once, front to back.

// runReader streams records back out of a run file, decoding each into a
// record buffer that it owns and reuses (grown when a larger record
// arrives).
type runReader struct {
	r   *bufio.Reader
	rec []byte
}

func openRunReader(f *os.File) (*runReader, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("extsort: rewind run: %w", err)
	}
	return &runReader{r: bufio.NewReaderSize(f, ioBufSize)}, nil
}

// next decodes the next record into the reader-owned buffer. It returns
// (nil, io.EOF) at the clean end of the run; a truncated record is an
// error, since runs are written whole.
func (r *runReader) next() ([]byte, error) {
	size, err := binary.ReadUvarint(r.r)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("extsort: run header: %w", err)
	}
	if size > maxRecordLen {
		return nil, fmt.Errorf("extsort: corrupt run: %d-byte record", size)
	}
	n := int(size)
	if cap(r.rec) < n {
		// Doubling keeps a run of slowly growing records amortized.
		r.rec = make([]byte, n, max(n, 2*cap(r.rec)))
	}
	r.rec = r.rec[:n]
	if _, err := io.ReadFull(r.r, r.rec); err != nil {
		return nil, fmt.Errorf("extsort: truncated run: %w", err)
	}
	return r.rec, nil
}

// mergeSrc is one source in the k-way merge: either a spilled run
// (r != nil) or the Sorter's in-memory tail (mem != nil, memIdx walking
// the sorted offs). seq is the source's position in addition order and
// breaks comparison ties, which is what makes the merge a stable sort.
type mergeSrc struct {
	seq    int
	r      *runReader
	mem    *Sorter
	memIdx int
	cur    []byte // current record; for runs this aliases r.rec
	done   bool
}

// Iterator yields the globally merged record sequence. It owns the
// spilled run files; Close closes and removes them (and is called
// implicitly when Next returns ok=false).
type Iterator struct {
	sorter *Sorter
	heap   []*mergeSrc // live sources, min-heap by (Less, seq)
	out    []byte      // iterator-owned copy handed to the caller
	err    error
}

// advance loads the source's next record into cur, marking it done at
// end of input.
func (it *Iterator) advance(src *mergeSrc) error {
	if src.mem != nil {
		src.memIdx++
		if src.memIdx >= len(src.mem.offs) {
			src.done = true
			return nil
		}
		ref := src.mem.offs[src.memIdx]
		src.cur = src.mem.arena[ref.off : ref.off+ref.len]
		return nil
	}
	rec, err := src.r.next()
	if err == io.EOF {
		src.done = true
		return nil
	}
	if err != nil {
		return err
	}
	src.cur = rec
	return nil
}

// srcLess orders heap entries: Less on the current records, then source
// sequence (earlier batch first) so ties replay addition order.
//
//greenvet:hotpath merge-heap comparator: two Less calls per sift step
func (it *Iterator) srcLess(a, b *mergeSrc) bool {
	less := it.sorter.cfg.Less
	if less(a.cur, b.cur) {
		return true
	}
	if less(b.cur, a.cur) {
		return false
	}
	return a.seq < b.seq
}

// heapInit orders the live sources collected by Sort into the merge heap.
func (it *Iterator) heapInit() {
	for i := len(it.heap)/2 - 1; i >= 0; i-- {
		it.siftDown(i)
	}
}

//greenvet:hotpath merge-heap restore: runs once per record drained from the k-way merge
func (it *Iterator) siftDown(i int) {
	h := it.heap
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && it.srcLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && it.srcLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// Next returns the next merged record. The returned slice is owned by
// the iterator and valid only until the following Next or Close call.
// ok=false marks the clean end of the sequence (resources are released);
// err is non-nil only on I/O failure, after which the iterator is dead.
//
//greenvet:hotpath merge drain: every spilled candidate passes through here exactly once
func (it *Iterator) Next() ([]byte, bool, error) {
	if it.err != nil {
		return nil, false, it.err
	}
	if len(it.heap) == 0 {
		it.Close()
		return nil, false, nil
	}
	top := it.heap[0]
	it.out = append(it.out[:0], top.cur...)
	if err := it.advance(top); err != nil {
		it.err = err
		it.Close()
		return nil, false, err
	}
	if top.done {
		last := len(it.heap) - 1
		it.heap[0] = it.heap[last]
		it.heap[last] = nil
		it.heap = it.heap[:last]
	}
	if len(it.heap) > 0 {
		it.siftDown(0)
	}
	return it.out, true, nil
}

// Close closes and removes the spilled run files and drops the buffers.
// Idempotent; safe after a failed Sort.
func (it *Iterator) Close() {
	if it.sorter == nil {
		return
	}
	for _, f := range it.sorter.runs {
		cleanupRun(f)
	}
	it.sorter.runs = nil
	it.sorter.arena = nil
	it.sorter.offs = nil
	it.heap = nil
	it.sorter = nil
}
