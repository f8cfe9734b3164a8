package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testMeta() *Meta {
	return &Meta{Format: FormatVersion, Scheduler: "p-lmtf", Seed: 42, K: 4, Util: 0.5, Watermark: 1024}
}

func testRecords(n int) []*Record {
	recs := make([]*Record, 0, n)
	for i := 0; i < n; i++ {
		seq := int64(i + 1)
		if i%5 == 4 {
			recs = append(recs, &Record{
				Type:   TypeFault,
				ID:     ID{VT: 1000 * seq, Seq: seq},
				Rounds: seq / 2,
				Fault:  &FaultRecord{Action: "link-down", Link: int(seq), RepairEventID: 1<<40 + seq},
			})
			continue
		}
		recs = append(recs, &Record{
			Type:   TypeEvent,
			ID:     ID{VT: 1000 * seq, Seq: seq},
			Rounds: seq / 2,
			Event: &EventRecord{
				EventID:   seq,
				Kind:      "submitted",
				Retry:     i%3 == 0,
				BatchSize: 1,
				Flows: []FlowSpec{
					{Src: int(seq), Dst: int(seq) + 1, DemandBps: 1e9, SizeBytes: 1 << 20},
					{Src: 0, Dst: 7, DemandBps: 5e8, SizeBytes: 1 << 19},
				},
			},
		})
	}
	return recs
}

func appendAll(t *testing.T, w *Writer, recs []*Record) {
	t.Helper()
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatalf("Append(seq=%d): %v", rec.ID.Seq, err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func replayAll(t *testing.T, l *Log, afterSeq int64) ([]*Record, ReplayInfo) {
	t.Helper()
	var got []*Record
	info, err := l.Replay(afterSeq, func(rec *Record) error {
		cp := *rec
		got = append(got, &cp)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got, info
}

func TestCodecRoundTrip(t *testing.T) {
	recs := testRecords(10)
	recs = append(recs, &Record{Type: TypeMeta, ID: ID{Seq: 0}, Meta: testMeta()})
	for _, rec := range recs {
		buf, err := AppendFrame(nil, rec)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
		got, _, err := ReadFrame(bytes.NewReader(buf), nil)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", rec, got)
		}
	}
}

func TestWriterSeqEnforced(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := l.OpenWriter(testMeta(), ID{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := testRecords(3)[2] // seq 3, but writer expects 1
	if err := w.Append(rec); !errors.Is(err, ErrSeq) {
		t.Fatalf("Append(seq=3) err = %v, want ErrSeq", err)
	}
}

func TestLogAppendReplay(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(12)

	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Empty() {
		t.Fatal("fresh log not Empty")
	}
	w, err := l.OpenWriter(testMeta(), ID{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, recs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.Empty() {
		t.Fatal("log with records reports Empty")
	}
	if got := l2.LastSeq(); got != 12 {
		t.Fatalf("LastSeq = %d, want 12", got)
	}
	if m := l2.Meta(); m == nil || *m != *testMeta() {
		t.Fatalf("Meta = %+v, want %+v", m, testMeta())
	}
	got, info := replayAll(t, l2, 0)
	if info.Records != len(recs) || info.Truncated {
		t.Fatalf("ReplayInfo = %+v", info)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed records differ")
	}

	// Replay past a cutoff skips the prefix.
	got, _ = replayAll(t, l2, 7)
	if len(got) != 5 || got[0].ID.Seq != 8 {
		t.Fatalf("Replay(after=7) got %d records, first seq %d", len(got), got[0].ID.Seq)
	}
}

func TestReopenContinuesSeq(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(8)

	l, _ := Open(dir)
	w, err := l.OpenWriter(testMeta(), ID{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, recs[:5])
	w.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := l2.OpenWriter(testMeta(), ID{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w2.LastSeq() != 5 {
		t.Fatalf("reopened writer LastSeq = %d, want 5", w2.LastSeq())
	}
	appendAll(t, w2, recs[5:])
	w2.Close()

	l3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, l3, 0)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("records after reopen differ")
	}
}

// TestTornTail truncates the log at every byte length between the
// second-to-last and last frame boundary: replay must cleanly ignore
// the torn tail and surface exactly the prefix.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(6)
	l, _ := Open(dir)
	w, err := l.OpenWriter(testMeta(), ID{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, recs)
	w.Close()

	lscan, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := lscan.Segments()[0]
	data, err := os.ReadFile(seg.Path)
	if err != nil {
		t.Fatal(err)
	}
	ends := seg.FrameEnds
	prevEnd := ends[len(ends)-2] // boundary before the final record
	for cut := prevEnd + 1; cut < int64(len(data)); cut++ {
		path := filepath.Join(t.TempDir(), segmentName(0))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lt, err := Open(filepath.Dir(path))
		if err != nil {
			t.Fatalf("Open(cut=%d): %v", cut, err)
		}
		if lt.LastSeq() != 5 {
			t.Fatalf("cut=%d: LastSeq = %d, want 5", cut, lt.LastSeq())
		}
		got, info := replayAll(t, lt, 0)
		if !info.Truncated {
			t.Fatalf("cut=%d: truncation not reported", cut)
		}
		if !reflect.DeepEqual(got, recs[:5]) {
			t.Fatalf("cut=%d: replayed prefix differs", cut)
		}
	}

	// A cut at an exact frame boundary is not a torn tail at all.
	path := filepath.Join(t.TempDir(), segmentName(0))
	if err := os.WriteFile(path, data[:prevEnd], 0o644); err != nil {
		t.Fatal(err)
	}
	lt, err := Open(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	got, info := replayAll(t, lt, 0)
	if info.Truncated || len(got) != 5 {
		t.Fatalf("boundary cut: info=%+v records=%d", info, len(got))
	}
}

// TestTornTailTruncatedOnAppend reopens a torn log for writing: the
// torn bytes must be discarded so new appends extend the last valid
// frame, and a subsequent scan sees a contiguous log.
func TestTornTailTruncatedOnAppend(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(6)
	l, _ := Open(dir)
	w, err := l.OpenWriter(testMeta(), ID{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, recs[:5])
	w.Close()

	segPath := l.Segments()[0].Path
	data, _ := os.ReadFile(segPath)
	if err := os.WriteFile(segPath, append(data, 0xde, 0xad, 0xbe), 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := l2.OpenWriter(testMeta(), ID{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w2, recs[5:])
	w2.Close()

	l3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, info := replayAll(t, l3, 0)
	if info.Truncated {
		t.Fatal("tail still torn after reopen-for-append")
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("records differ after torn-tail repair")
	}
}

// TestBitFlipIsCorrupt flips one bit in each frame region of a valid
// segment: scan must fail with ErrCorrupt (never silently skip).
func TestBitFlipIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir)
	w, err := l.OpenWriter(testMeta(), ID{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, testRecords(4))
	w.Close()
	data, err := os.ReadFile(l.Segments()[0].Path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a bit in the payload, the CRC field and mid-stream (not the
	// final frame, so truncation tolerance cannot mask it).
	for _, off := range []int{9, 4, len(data) / 2} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		path := filepath.Join(t.TempDir(), segmentName(0))
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(filepath.Dir(path))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: Open err = %v, want ErrCorrupt", off, err)
		}
	}
}

func TestCheckpointRotateAndPurge(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(10)
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := l.OpenWriter(testMeta(), ID{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, recs[:6])

	state := []byte(`{"folded":6}`)
	w2, err := l.Rotate(w, state, ID{VT: 6000, Seq: 6}, 3)
	if err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	appendAll(t, w2, recs[6:])
	w2.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after rotate: %v", err)
	}
	ck := l2.Checkpoint()
	if ck == nil || ck.ID.Seq != 6 || ck.Rounds != 3 || string(ck.State) != string(state) {
		t.Fatalf("Checkpoint = %+v", ck)
	}
	if n := len(l2.Segments()); n != 1 {
		t.Fatalf("segments after purge = %d, want 1", n)
	}
	got, _ := replayAll(t, l2, ck.ID.Seq)
	if !reflect.DeepEqual(got, recs[6:]) {
		t.Fatal("suffix replay after checkpoint differs")
	}
	// A replay from genesis (`updatectl wal verify`) reads what the purge
	// left on disk.
	if got, _ := replayAll(t, l2, 0); !reflect.DeepEqual(got, recs[6:]) {
		t.Fatalf("replay from 0 after purge: %d records, want the %d on disk", len(got), len(recs[6:]))
	}
	if m := l2.Meta(); m == nil || *m != *testMeta() {
		t.Fatalf("meta lost across rotation: %+v", m)
	}
}

// A checkpoint with nothing appended since the current segment's base
// (a fresh log at seq 0, or two rotations at one ID) must leave the
// writer open and usable: the segment it would create already exists.
func TestRotateTwiceAtOneID(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(10)
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := l.OpenWriter(testMeta(), ID{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if same, err := l.Rotate(w, []byte(`{}`), ID{}, 0); err != nil || same != w {
		t.Fatalf("Rotate on a fresh log = (%p, %v), want the open writer %p", same, err, w)
	}
	if l.Checkpoint() != nil {
		t.Fatal("no-op rotation wrote a checkpoint")
	}
	appendAll(t, w, recs[:6])

	state := []byte(`{"folded":6}`)
	w2, err := l.Rotate(w, state, ID{VT: 6000, Seq: 6}, 3)
	if err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	again, err := l.Rotate(w2, []byte(`{"folded":"later"}`), ID{VT: 7000, Seq: 6}, 4)
	if err != nil || again != w2 {
		t.Fatalf("second Rotate at seq 6 = (%p, %v), want the open writer %p", again, err, w2)
	}
	appendAll(t, again, recs[6:])
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	ck := l2.Checkpoint()
	if ck == nil || ck.ID.Seq != 6 || string(ck.State) != string(state) {
		t.Fatalf("Checkpoint = %+v, want the first one taken at seq 6", ck)
	}
	got, _ := replayAll(t, l2, ck.ID.Seq)
	if !reflect.DeepEqual(got, recs[6:]) {
		t.Fatal("suffix replay after the repeated rotation differs")
	}
}

func TestKeepSegmentsArchivesHistory(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(10)
	l, err := Open(dir, WithKeepSegments())
	if err != nil {
		t.Fatal(err)
	}
	w, err := l.OpenWriter(testMeta(), ID{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, recs[:6])
	w2, err := l.Rotate(w, []byte(`{}`), ID{VT: 6000, Seq: 6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w2, recs[6:])
	w2.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(l2.Segments()); n != 2 {
		t.Fatalf("segments kept = %d, want 2", n)
	}
	// Genesis fold still possible: replay everything from seq 0.
	got, _ := replayAll(t, l2, 0)
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("genesis replay with kept segments differs")
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint-0000000000000006.json")); err != nil {
		t.Fatalf("checkpoint archive missing: %v", err)
	}
}

// purgedLog writes records 1..10 with a checkpoint at seq 6, so the
// segment holding 1..6 is purged and the directory keeps checkpoint.json
// plus wal-…06.log with records 7..10.
func purgedLog(t *testing.T) (string, []*Record) {
	t.Helper()
	dir := t.TempDir()
	recs := testRecords(10)
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := l.OpenWriter(testMeta(), ID{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, recs[:6])
	w, err = l.Rotate(w, []byte(`{"folded":6}`), ID{VT: 6000, Seq: 6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, recs[6:])
	w.Close()
	return dir, recs
}

// TestOpenWriterRemovesInterruptedAtomicWrites plants what a crash
// between WriteFileAtomic's CreateTemp and its Rename leaves behind — a
// half-written checkpoint and replication term. A read-only Open (what
// `updatectl wal info` does beside a live daemon, whose temp file may be
// in flight) must leave both alone; OpenWriter, run only by the
// directory's owner, must delete both and still recover the same log.
// Before, each kill during a checkpoint stranded another temp file in the
// directory for good.
func TestOpenWriterRemovesInterruptedAtomicWrites(t *testing.T) {
	dir, recs := purgedLog(t)
	var planted []string
	for _, name := range []string{checkpointName, "term.json"} {
		f, err := os.CreateTemp(dir, name+".tmp*") // WriteFileAtomic's pattern
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(`{"torn":`)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		planted = append(planted, f.Name())
	}

	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with leftover temp files: %v", err)
	}
	for _, path := range planted {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("read-only Open removed %s: %v", filepath.Base(path), err)
		}
	}
	if l.LastSeq() != 10 || l.Checkpoint() == nil || l.Checkpoint().ID.Seq != 6 {
		t.Fatalf("recovered last seq %d, checkpoint %+v; want 10 and seq 6", l.LastSeq(), l.Checkpoint())
	}
	if got, _ := replayAll(t, l, 6); !reflect.DeepEqual(got, recs[6:]) {
		t.Fatal("suffix replay differs beside the temp files")
	}

	w, err := l.OpenWriter(testMeta(), ID{}, 0)
	if err != nil {
		t.Fatalf("OpenWriter with leftover temp files: %v", err)
	}
	defer w.Close()
	for _, path := range planted {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived OpenWriter (stat err %v)", filepath.Base(path), err)
		}
	}
	if w.LastSeq() != 10 {
		t.Fatalf("writer resumes after seq %d, want 10", w.LastSeq())
	}
}

// TestReplayReportsMissingRecords: a replay may start at the oldest
// segment's base only when the checkpoint covers the records before it.
// A checkpoint older than the oldest segment, or none at all, leaves a
// hole in the history that Replay must report as ErrCorrupt, naming the
// segment, instead of folding the suffix as if nothing were missing.
// Errors from the caller's fold name the segment too.
func TestReplayReportsMissingRecords(t *testing.T) {
	dir, recs := purgedLog(t)
	seg := segmentName(6)

	stale := &Checkpoint{Format: FormatVersion, ID: ID{VT: 3000, Seq: 3}, Rounds: 1, State: []byte(`{}`)}
	if err := (&Log{dir: dir}).writeCheckpoint(stale); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, after := range []int64{0, 3} {
		_, err := l.Replay(after, func(*Record) error { return nil })
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), seg) {
			t.Errorf("Replay(%d) under a checkpoint at seq 3 = %v, want ErrCorrupt naming %s", after, err, seg)
		}
	}

	if err := os.Remove(filepath.Join(dir, checkpointName)); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Replay(0, func(*Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Replay(0) without a checkpoint = %v, want ErrCorrupt", err)
	}
	// The records on disk are intact: a replay from the oldest base works.
	if got, _ := replayAll(t, l, 6); !reflect.DeepEqual(got, recs[6:]) {
		t.Fatal("replay from the oldest base differs")
	}

	errFold := errors.New("fold failed")
	if _, err := l.Replay(6, func(*Record) error { return errFold }); !errors.Is(err, errFold) || !strings.Contains(err.Error(), seg) {
		t.Errorf("fold error = %v, want errFold naming %s", err, seg)
	}
}

func TestMetaMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir)
	w, err := l.OpenWriter(testMeta(), ID{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, testRecords(3))
	w.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	other := testMeta()
	other.Seed = 99
	if _, err := l2.OpenWriter(other, ID{}, 0); !errors.Is(err, ErrMetaMismatch) {
		t.Fatalf("OpenWriter with different world err = %v, want ErrMetaMismatch", err)
	}
}

func TestReadFrameTornHeader(t *testing.T) {
	buf, err := AppendFrame(nil, testRecords(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(buf); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(buf[:cut]), nil)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut=%d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}
