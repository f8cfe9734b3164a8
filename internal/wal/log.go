package wal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	segmentPrefix  = "wal-"
	segmentSuffix  = ".log"
	checkpointName = "checkpoint.json"
)

// Checkpoint is the on-disk checkpoint envelope: the logical-clock ID
// and round count of the fold it captures, plus an opaque state
// document owned by the ctl layer. A checkpoint covering ID.Seq = s
// replaces the fold of records 1..s; recovery replays only seq > s.
type Checkpoint struct {
	Format int             `json:"format"`
	ID     ID              `json:"id"`
	Rounds int64           `json:"rounds"`
	State  json.RawMessage `json:"state"`
}

// SegmentInfo describes one scanned segment file.
type SegmentInfo struct {
	Path string
	// Base is the sequence base from the file name: the last seq covered
	// before this segment, so its first record carries Base+1.
	Base int64
	// Records counts decoded non-meta records.
	Records int
	// LastSeq is the last valid record seq (== Base for meta-only).
	LastSeq int64
	// FrameEnds holds the byte offset just past each valid frame,
	// including the meta frame — the clean truncation points a torn
	// write can leave behind.
	FrameEnds []int64
	// Truncated reports a torn tail past the last valid frame.
	Truncated bool
}

// ReplayInfo summarizes one Replay pass.
type ReplayInfo struct {
	// Records is the number of records handed to the callback.
	Records int
	// LastSeq is the last record seq in the log (independent of the
	// afterSeq cutoff).
	LastSeq int64
	// Truncated reports that a torn tail was ignored.
	Truncated bool
}

// Option configures Open.
type Option func(*Log)

// WithSync sets the fsync policy for writers opened from this log.
func WithSync(p SyncPolicy) Option { return func(l *Log) { l.policy = p } }

// WithKeepSegments disables segment purging on checkpoint and archives
// each checkpoint as checkpoint-<seq>.json next to the live one. The
// full history stays replayable from genesis — used by the fold-
// equivalence tests to rebuild the crash image at any record prefix.
func WithKeepSegments() Option { return func(l *Log) { l.keep = true } }

// Log manages a WAL directory: its segment files and checkpoint. Open
// scans and validates the whole directory up front; Replay re-reads the
// segments to hand records to the recovery fold.
type Log struct {
	dir    string
	policy SyncPolicy
	keep   bool

	segments []SegmentInfo
	lastSeq  int64
	meta     *Meta
	ckpt     *Checkpoint
}

// Open opens (creating if needed) the WAL directory at dir and scans
// it: segment names, frame CRCs and sequence continuity are verified.
// A torn tail on the last segment is tolerated and noted; any other
// damage fails with ErrCorrupt.
func Open(dir string, opts ...Option) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, policy: SyncGroup}
	for _, opt := range opts {
		opt(l)
	}
	if err := l.loadCheckpoint(); err != nil {
		return nil, err
	}
	if err := l.scan(); err != nil {
		return nil, err
	}
	return l, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Empty reports a fresh log: no checkpoint and no records.
func (l *Log) Empty() bool { return l.ckpt == nil && l.lastSeq == 0 }

// LastSeq returns the highest valid record seq on disk (0 if none).
func (l *Log) LastSeq() int64 { return l.lastSeq }

// Meta returns the world descriptor from the oldest segment, or nil
// for a fresh log.
func (l *Log) Meta() *Meta { return l.meta }

// Checkpoint returns the newest checkpoint, or nil.
func (l *Log) Checkpoint() *Checkpoint { return l.ckpt }

// Segments returns the scanned segments, oldest first.
func (l *Log) Segments() []SegmentInfo { return l.segments }

func (l *Log) loadCheckpoint() error {
	data, err := os.ReadFile(filepath.Join(l.dir, checkpointName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	ck := &Checkpoint{}
	if err := json.Unmarshal(data, ck); err != nil {
		return fmt.Errorf("%w: bad checkpoint: %v", ErrCorrupt, err)
	}
	if ck.Format != FormatVersion {
		return fmt.Errorf("%w: checkpoint format %d, want %d", ErrCorrupt, ck.Format, FormatVersion)
	}
	l.ckpt = ck
	return nil
}

func segmentBase(name string) (int64, bool) {
	if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	base, err := strconv.ParseInt(name[len(segmentPrefix):len(name)-len(segmentSuffix)], 16, 64)
	if err != nil || base < 0 {
		return 0, false
	}
	return base, true
}

func segmentName(base int64) string {
	return fmt.Sprintf("%s%016x%s", segmentPrefix, base, segmentSuffix)
}

func (l *Log) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if base, ok := segmentBase(e.Name()); ok {
			l.segments = append(l.segments, SegmentInfo{Path: filepath.Join(l.dir, e.Name()), Base: base})
		}
	}
	sort.Slice(l.segments, func(i, j int) bool { return l.segments[i].Base < l.segments[j].Base })

	for i := range l.segments {
		seg := &l.segments[i]
		last := i == len(l.segments)-1
		if err := scanSegment(seg, last); err != nil {
			return err
		}
		if seg.Truncated && !last {
			return fmt.Errorf("%w: %s truncated but not the last segment", ErrCorrupt, seg.Path)
		}
		if i > 0 && seg.Base != l.segments[i-1].LastSeq {
			return fmt.Errorf("%w: segment %s base %d does not continue previous last seq %d",
				ErrCorrupt, seg.Path, seg.Base, l.segments[i-1].LastSeq)
		}
		if seg.LastSeq > l.lastSeq {
			l.lastSeq = seg.LastSeq
		}
	}
	if len(l.segments) > 0 {
		first := l.segments[0]
		if meta, err := readSegmentMeta(first.Path); err == nil && meta != nil {
			l.meta = meta
		}
	}
	if l.ckpt != nil && l.ckpt.ID.Seq > l.lastSeq {
		return fmt.Errorf("%w: checkpoint covers seq %d but log ends at %d", ErrCorrupt, l.ckpt.ID.Seq, l.lastSeq)
	}
	return nil
}

// scanSegment validates one segment file and fills in its SegmentInfo.
// A torn tail is tolerated only when tolerateTail is set (last
// segment); the caller enforces that.
func scanSegment(seg *SegmentInfo, tolerateTail bool) error {
	f, err := os.Open(seg.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)

	var (
		off     int64
		frame   []byte
		sawMeta bool
	)
	seg.LastSeq = seg.Base
	for {
		var rec *Record
		rec, frame, err = ReadFrame(br, frame)
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF {
			if !tolerateTail {
				return fmt.Errorf("%w: %s truncated mid-segment", ErrCorrupt, seg.Path)
			}
			seg.Truncated = true
			break
		}
		if err != nil {
			return fmt.Errorf("%s at offset %d: %w", seg.Path, off, err)
		}
		if !sawMeta {
			if rec.Type != TypeMeta {
				return fmt.Errorf("%w: %s does not start with a meta record", ErrCorrupt, seg.Path)
			}
			if rec.ID.Seq != seg.Base {
				return fmt.Errorf("%w: %s meta base %d, file name says %d", ErrCorrupt, seg.Path, rec.ID.Seq, seg.Base)
			}
			sawMeta = true
		} else {
			if rec.Type == TypeMeta {
				return fmt.Errorf("%w: %s has a second meta record", ErrCorrupt, seg.Path)
			}
			if rec.ID.Seq != seg.LastSeq+1 {
				return fmt.Errorf("%w: %s seq %d after %d", ErrCorrupt, seg.Path, rec.ID.Seq, seg.LastSeq)
			}
			seg.LastSeq = rec.ID.Seq
			seg.Records++
		}
		off += int64(len(frame))
		seg.FrameEnds = append(seg.FrameEnds, off)
	}
	return nil
}

// readSegmentMeta decodes just the leading meta record of a segment.
func readSegmentMeta(path string) (*Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rec, _, err := ReadFrame(bufio.NewReader(f), nil)
	if err != nil {
		return nil, err
	}
	if rec.Type != TypeMeta {
		return nil, fmt.Errorf("%w: %s does not start with a meta record", ErrCorrupt, path)
	}
	return rec.Meta, nil
}

// Replay re-reads every segment in order and hands each event/fault
// record with seq > afterSeq to fn, stopping on the first fn error.
// Meta records are skipped (Open already validated them). The torn tail
// of the last segment, if any, is ignored.
func (l *Log) Replay(afterSeq int64, fn func(*Record) error) (ReplayInfo, error) {
	info := ReplayInfo{LastSeq: l.lastSeq}
	for i := range l.segments {
		seg := &l.segments[i]
		if seg.LastSeq <= afterSeq {
			continue
		}
		if err := replaySegment(seg, afterSeq, fn, &info); err != nil {
			return info, err
		}
		info.Truncated = info.Truncated || seg.Truncated
	}
	return info, nil
}

func replaySegment(seg *SegmentInfo, afterSeq int64, fn func(*Record) error, info *ReplayInfo) error {
	f, err := os.Open(seg.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var scratch []byte
	for n := 0; n < len(seg.FrameEnds); n++ {
		var rec *Record
		rec, scratch, err = ReadFrame(br, scratch)
		if err != nil {
			return fmt.Errorf("%s: %w", seg.Path, err)
		}
		if rec.Type == TypeMeta || rec.ID.Seq <= afterSeq {
			continue
		}
		if err := fn(rec); err != nil {
			return err
		}
		info.Records++
	}
	return nil
}

// TruncateTail physically truncates the newest segment to its last
// valid frame boundary (the final FrameEnds offset), discarding the
// torn tail a crash mid-append can leave behind. It returns the number
// of bytes removed.
//
// Scan tolerates a torn tail only on the last segment, and OpenWriter
// truncates it before appending — but a replication follower advertises
// its resume point and can receive a checkpoint announcement (which
// rotates to a fresh segment) before it ever appends. Without this
// call, the torn bytes would survive the rotation inside a now
// non-final segment and the next Open would refuse the directory with
// ErrCorrupt. Follower resume therefore truncates to the last acked
// FrameEnds boundary before handshaking.
func (l *Log) TruncateTail() (int64, error) {
	if len(l.segments) == 0 {
		return 0, nil
	}
	seg := &l.segments[len(l.segments)-1]
	valid := int64(0)
	if n := len(seg.FrameEnds); n > 0 {
		valid = seg.FrameEnds[n-1]
	}
	fi, err := os.Stat(seg.Path)
	if err != nil {
		return 0, err
	}
	removed := fi.Size() - valid
	if removed <= 0 {
		seg.Truncated = false
		return 0, nil
	}
	f, err := os.OpenFile(seg.Path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := f.Truncate(valid); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	seg.Truncated = false
	return removed, nil
}

// InstallCheckpoint bootstraps an empty log from a checkpoint shipped
// by a replication leader: the document is durably written as the
// log's own checkpoint and the sequence floor advances to the seq it
// covers, so a writer opened afterwards starts a segment based there.
// Installing into a log that already holds records or a checkpoint is
// refused — a behind follower must be wiped, never spliced.
func (l *Log) InstallCheckpoint(ck *Checkpoint) error {
	if !l.Empty() {
		return fmt.Errorf("wal: install checkpoint into non-empty log (last seq %d)", l.lastSeq)
	}
	if ck.Format != FormatVersion {
		return fmt.Errorf("%w: checkpoint format %d, want %d", ErrCorrupt, ck.Format, FormatVersion)
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(l.dir, checkpointName, data); err != nil {
		return err
	}
	if l.keep {
		archive := fmt.Sprintf("checkpoint-%016x.json", ck.ID.Seq)
		if err := WriteFileAtomic(l.dir, archive, data); err != nil {
			return err
		}
	}
	cp := *ck
	l.ckpt = &cp
	l.lastSeq = ck.ID.Seq
	return nil
}

// OpenWriter opens the newest segment for appending, creating the first
// segment (with a leading meta record) on a fresh log. A torn tail is
// truncated away first, so appends always extend the last valid frame.
// meta describes the daemon's world; it is verified against the log's
// recorded meta and used for any newly created segment.
func (l *Log) OpenWriter(meta *Meta, id ID, rounds int64) (*Writer, error) {
	if l.meta != nil {
		if err := l.meta.Check(meta); err != nil {
			return nil, err
		}
	} else {
		l.meta = cloneMeta(meta)
	}
	if len(l.segments) == 0 {
		return l.createSegment(ID{VT: id.VT, Seq: l.lastSeq}, rounds)
	}
	seg := &l.segments[len(l.segments)-1]
	f, err := os.OpenFile(seg.Path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	valid := int64(0)
	if n := len(seg.FrameEnds); n > 0 {
		valid = seg.FrameEnds[n-1]
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	if valid == 0 {
		// The segment file exists but holds no valid frame (crash between
		// create and meta write): rewrite the meta record.
		w := newWriter(f, l.policy, l.lastSeq)
		if err := w.Append(&Record{Type: TypeMeta, ID: ID{VT: id.VT, Seq: seg.Base}, Rounds: rounds, Meta: l.meta}); err != nil {
			f.Close()
			return nil, err
		}
		if err := w.Commit(); err != nil {
			f.Close()
			return nil, err
		}
		return w, nil
	}
	return newWriter(f, l.policy, l.lastSeq), nil
}

func (l *Log) createSegment(id ID, rounds int64) (*Writer, error) {
	path := filepath.Join(l.dir, segmentName(id.Seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	w := newWriter(f, l.policy, id.Seq)
	if err := w.Append(&Record{Type: TypeMeta, ID: id, Rounds: rounds, Meta: l.meta}); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Commit(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(l.dir); err != nil {
		return nil, err
	}
	l.segments = append(l.segments, SegmentInfo{Path: path, Base: id.Seq, LastSeq: id.Seq})
	return w, nil
}

// Rotate executes the checkpoint/truncate protocol: commit and close
// the active writer, atomically replace checkpoint.json with a
// checkpoint covering id/rounds and the opaque state document, start a
// fresh segment based at id.Seq, and purge the segments the checkpoint
// covers. It returns the writer for the new segment.
//
// Crash safety: the old segments are removed only after the new
// checkpoint is durable, so every instant has either (old checkpoint +
// full suffix) or (new checkpoint + empty suffix) on disk.
//
// With nothing appended since the active segment's base (a fresh log,
// or a second checkpoint at one sequence) there is nothing to truncate
// and the segment Rotate would create already exists: w is returned
// still open and the disk is left alone. What the base already stands
// for — genesis, or the checkpoint that created the segment — plus an
// empty suffix recovers to the same fold.
func (l *Log) Rotate(w *Writer, state []byte, id ID, rounds int64) (*Writer, error) {
	if n := len(l.segments); w != nil && n > 0 && l.segments[n-1].Base == id.Seq {
		return w, nil
	}
	if w != nil {
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	ck := &Checkpoint{Format: FormatVersion, ID: id, Rounds: rounds, State: state}
	data, err := json.Marshal(ck)
	if err != nil {
		return nil, err
	}
	if err := WriteFileAtomic(l.dir, checkpointName, data); err != nil {
		return nil, err
	}
	if l.keep {
		// Archive the checkpoint under its seq so historical crash images
		// can be reconstructed at any prefix.
		archive := fmt.Sprintf("checkpoint-%016x.json", id.Seq)
		if err := WriteFileAtomic(l.dir, archive, data); err != nil {
			return nil, err
		}
	}
	l.ckpt = ck
	l.lastSeq = id.Seq

	nw, err := l.createSegment(id, rounds)
	if err != nil {
		return nil, err
	}
	if !l.keep {
		kept := l.segments[:0]
		for _, seg := range l.segments {
			if seg.LastSeq <= id.Seq && seg.Base < id.Seq {
				if err := os.Remove(seg.Path); err != nil {
					return nil, err
				}
				continue
			}
			kept = append(kept, seg)
		}
		l.segments = kept
		if err := syncDir(l.dir); err != nil {
			return nil, err
		}
	}
	return nw, nil
}

func cloneMeta(m *Meta) *Meta {
	cp := *m
	return &cp
}

// WriteFileAtomic durably replaces dir/name with data: temp file, write,
// fsync, rename, directory fsync. A crash leaves the old file or the new
// one, never a torn mix. The checkpoint and the replication term (the
// two files beside the segments) are both written this way.
func WriteFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
