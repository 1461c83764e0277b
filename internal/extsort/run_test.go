package extsort

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpillWriteErrorRemovesRunFile is the regression test for the PR-10
// spill error path: a spill whose run file cannot be written returns the
// error, leaves no extsort-*.run behind and registers no run. The file
// is closed under the sorter so every write fails, like a full disk. The
// small batch fails at the final flush, the large one mid-batch.
func TestSpillWriteErrorRemovesRunFile(t *testing.T) {
	for _, recLen := range []int{16, 3 * ioBufSize} {
		dir := t.TempDir()
		s := NewSorter(Config{Dir: dir})
		if err := s.Add(bytes.Repeat([]byte{'x'}, recLen)); err != nil {
			t.Fatal(err)
		}
		f, err := os.CreateTemp(dir, "extsort-*.run")
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		err = s.spillTo(f)
		if err == nil || !strings.Contains(err.Error(), "write run") {
			t.Fatalf("recLen %d: spill onto a closed file returned %v, want a write-run error", recLen, err)
		}
		if s.Runs() != 0 {
			t.Fatalf("recLen %d: failed spill registered %d runs", recLen, s.Runs())
		}
		left, _ := filepath.Glob(filepath.Join(dir, "extsort-*.run"))
		if len(left) != 0 {
			t.Fatalf("recLen %d: failed spill left %v behind", recLen, left)
		}
	}
}

// TestRunReaderRejectsDamagedRuns pins the read-side checks: a header
// cut mid-varint, a payload shorter than its header says and a header
// claiming more than maxRecordLen are errors, not end of run.
func TestRunReaderRejectsDamagedRuns(t *testing.T) {
	var huge [binary.MaxVarintLen64]byte
	hugeHdr := huge[:binary.PutUvarint(huge[:], maxRecordLen+1)]
	cases := []struct {
		name, want string
		data       []byte
	}{
		{"cut header", "run header", []byte{3, 'a', 'b', 'c', 0x80}},
		{"cut payload", "truncated run", []byte{3, 'a', 'b', 'c', 5, 'd'}},
		{"missing payload", "truncated run", []byte{3, 'a', 'b', 'c', 5}},
		{"oversized record", "corrupt run", append([]byte{3, 'a', 'b', 'c'}, hugeHdr...)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := os.CreateTemp(t.TempDir(), "extsort-*.run")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(c.data); err != nil {
				t.Fatal(err)
			}
			r, err := openRunReader(f)
			if err != nil {
				t.Fatal(err)
			}
			if rec, err := r.next(); err != nil || string(rec) != "abc" {
				t.Fatalf("first record = %q, %v", rec, err)
			}
			if _, err := r.next(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("second record error = %v, want %q", err, c.want)
			}
		})
	}
}
