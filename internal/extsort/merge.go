package extsort

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Run file format: a flat sequence of records, each a uvarint payload
// length followed by the payload bytes. No framing beyond that — a run
// is complete by construction (it is written and flushed in one spill)
// and read exactly once, front to back.

// runWriter buffers record writes into one pooled ioBufSize window.
type runWriter struct {
	f   *os.File
	buf []byte // pooled; len is the fill level
}

func newRunWriter(f *os.File) *runWriter {
	return &runWriter{f: f, buf: getScratch(ioBufSize)}
}

// write appends one record (header + payload) to the buffer, draining it
// to the file whenever it crosses the window size.
func (w *runWriter) write(rec []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(rec)))
	w.buf = append(w.buf, hdr[:n]...)
	w.buf = append(w.buf, rec...)
	if len(w.buf) >= ioBufSize {
		return w.drain()
	}
	return nil
}

func (w *runWriter) drain() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("extsort: write run: %w", err)
	}
	w.buf = w.buf[:0]
	return nil
}

// flush drains the remaining bytes and returns the pooled buffer. The
// file stays open — the merge reads it back through a runReader.
//
//greenvet:owner consumes(w) flush hands w.buf back to the scratch pool on every path, success or drain error; the writer must not be reused
func (w *runWriter) flush() error {
	err := w.drain()
	putScratch(w.buf)
	w.buf = nil
	return err
}

// discard abandons the run without draining, returning the pooled buffer
// unwritten — the error-path counterpart of flush, for a spill that
// failed partway and is about to delete its run file.
//
//greenvet:owner consumes(w) discard hands w.buf back to the scratch pool; the writer must not be reused
func (w *runWriter) discard() {
	putScratch(w.buf)
	w.buf = nil
}

// runReader streams records back out of a run file through a pooled
// ioBufSize window, decoding each into a pooled record scratch buffer
// that it owns and reuses (grown by class when a larger record arrives).
type runReader struct {
	f   *os.File
	buf []byte // pooled I/O window; buf[pos:] is unread
	pos int
	rec []byte // pooled record scratch, reused across next calls
	eof bool   // underlying file is exhausted (buffered bytes may remain)
}

func openRunReader(f *os.File) (*runReader, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("extsort: rewind run: %w", err)
	}
	return &runReader{
		f:   f,
		buf: getScratch(ioBufSize),
		rec: getScratch(1 << scratchMinShift),
	}, nil
}

// fill tops up the window, keeping any unread tail.
func (r *runReader) fill() error {
	if r.eof {
		return io.EOF
	}
	tail := copy(r.buf[:cap(r.buf)], r.buf[r.pos:])
	r.pos = 0
	n, err := r.f.Read(r.buf[tail:cap(r.buf)])
	r.buf = r.buf[:tail+n]
	if err == io.EOF {
		r.eof = true
		if n == 0 && tail == 0 {
			return io.EOF
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("extsort: read run: %w", err)
	}
	return nil
}

func (r *runReader) readByte() (byte, error) {
	for r.pos >= len(r.buf) {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

// next decodes the next record into the reader-owned scratch. It returns
// (nil, io.EOF) at the clean end of the run; a truncated record is an
// error, since runs are written whole.
func (r *runReader) next() ([]byte, error) {
	size, err := binary.ReadUvarint(byteReaderFunc(r.readByte))
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("extsort: run header: %w", err)
	}
	n := int(size)
	if n > maxRecordLen {
		return nil, fmt.Errorf("extsort: corrupt run: %d-byte record", n)
	}
	if cap(r.rec) < n {
		putScratch(r.rec)
		r.rec = getScratch(n)
	}
	r.rec = r.rec[:0]
	for len(r.rec) < n {
		if r.pos >= len(r.buf) {
			if err := r.fill(); err != nil {
				return nil, fmt.Errorf("extsort: truncated run: %w", err)
			}
		}
		take := len(r.buf) - r.pos
		if rem := n - len(r.rec); take > rem {
			take = rem
		}
		r.rec = append(r.rec, r.buf[r.pos:r.pos+take]...)
		r.pos += take
	}
	return r.rec, nil
}

// close returns the pooled buffers; the file is owned by the Sorter's
// run list and closed by Iterator.Close.
func (r *runReader) close() {
	putScratch(r.buf)
	putScratch(r.rec)
	r.buf, r.rec = nil, nil
}

// byteReaderFunc adapts a readByte method to io.ByteReader without
// allocating an adapter struct per call site.
type byteReaderFunc func() (byte, error)

func (f byteReaderFunc) ReadByte() (byte, error) { return f() }

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
// spilled run files and all pooled scratch; Close releases everything
// (and is called implicitly when Next returns ok=false).
type Iterator struct {
	sorter *Sorter
	srcs   []*mergeSrc // all sources, for Close
	heap   []*mergeSrc // live sources, min-heap by (Less, seq)
	out    []byte      // iterator-owned copy handed to the caller
	err    error
}

// openRunSrc wraps one spilled run file as a merge source.
func openRunSrc(f *os.File, seq int) (*mergeSrc, error) {
	r, err := openRunReader(f)
	if err != nil {
		return nil, err
	}
	return &mergeSrc{seq: seq, r: r, memIdx: -1}, nil
}

// advance loads the source's next record into cur, marking it done at
// end of input. Live sources are pushed onto the heap.
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

// heapInit builds the merge heap from the sources advance() left live.
func (it *Iterator) heapInit() {
	for _, src := range it.srcs {
		if !src.done {
			it.heap = append(it.heap, src)
		}
	}
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

// Close releases all pooled buffers and closes and removes the spilled
// run files. Idempotent; safe after a failed Sort.
func (it *Iterator) Close() {
	if it.sorter == nil {
		return
	}
	for _, src := range it.srcs {
		if src.r != nil {
			src.r.close()
			src.r = nil
		}
	}
	for _, f := range it.sorter.runs {
		cleanupRun(f)
	}
	it.sorter.runs = nil
	it.sorter.arena = nil
	it.sorter.offs = nil
	it.sorter.closed = true
	it.srcs, it.heap = nil, nil
	it.sorter = nil
}
