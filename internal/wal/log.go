package wal

import (
	"bufio"
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
// damage fails with ErrCorrupt. Apart from creating a missing directory,
// Open only reads, so it is safe beside a running daemon that owns it.
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
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		return err
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
		meta, err := scanSegment(seg, i == len(l.segments)-1)
		if err != nil {
			return err
		}
		if i == 0 {
			l.meta = meta
		} else if seg.Base != l.segments[i-1].LastSeq {
			return fmt.Errorf("%w: segment %s base %d does not continue previous last seq %d",
				ErrCorrupt, seg.Path, seg.Base, l.segments[i-1].LastSeq)
		}
		if seg.LastSeq > l.lastSeq {
			l.lastSeq = seg.LastSeq
		}
	}
	if l.ckpt != nil && l.ckpt.ID.Seq > l.lastSeq {
		return fmt.Errorf("%w: checkpoint covers seq %d but log ends at %d", ErrCorrupt, l.ckpt.ID.Seq, l.lastSeq)
	}
	return nil
}

// scanSegment validates one segment file, fills in its SegmentInfo and
// returns its meta (nil for a file that holds no frame yet). A torn tail
// is tolerated only on the last segment.
func scanSegment(seg *SegmentInfo, last bool) (*Meta, error) {
	var meta *Meta
	seg.LastSeq = seg.Base
	torn, err := readSegment(seg.Path, 0, func(end int64, _ []byte, rec *Record) error {
		if meta == nil {
			if rec.Type != TypeMeta {
				return fmt.Errorf("%w: segment does not start with a meta record", ErrCorrupt)
			}
			if rec.ID.Seq != seg.Base {
				return fmt.Errorf("%w: meta base %d, file name says %d", ErrCorrupt, rec.ID.Seq, seg.Base)
			}
			meta = rec.Meta
		} else {
			if rec.Type == TypeMeta {
				return fmt.Errorf("%w: second meta record", ErrCorrupt)
			}
			if rec.ID.Seq != seg.LastSeq+1 {
				return fmt.Errorf("%w: seq %d after %d", ErrCorrupt, rec.ID.Seq, seg.LastSeq)
			}
			seg.LastSeq = rec.ID.Seq
			seg.Records++
		}
		seg.FrameEnds = append(seg.FrameEnds, end)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if torn && !last {
		return nil, fmt.Errorf("%w: %s truncated mid-segment", ErrCorrupt, seg.Path)
	}
	seg.Truncated = torn
	return meta, nil
}

// errStopSegment, returned by a readSegment callback, ends the read
// early without error.
var errStopSegment = errors.New("wal: stop reading segment")

// readSegment is the one reader of segment files. It opens path, seeks
// to off (0 or a FrameEnds boundary) and hands fn every frame from there
// on: the offset just past it, its bytes (valid only during the call)
// and its decoded record. It stops at a clean end of file, at a torn
// tail — reported as torn — or when fn returns errStopSegment. Any other
// error, the damage found or fn's own, is wrapped with the file and the
// offset of the frame it concerns.
func readSegment(path string, off int64, fn func(end int64, frame []byte, rec *Record) error) (torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return false, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var frame []byte
	for {
		var rec *Record
		rec, frame, err = ReadFrame(br, frame)
		switch {
		case err == io.EOF:
			return false, nil
		case err == io.ErrUnexpectedEOF:
			return true, nil
		case err != nil:
			return false, fmt.Errorf("%s at offset %d: %w", path, off, err)
		}
		start := off
		off += int64(len(frame))
		if err := fn(off, frame, rec); err == errStopSegment {
			return false, nil
		} else if err != nil {
			return false, fmt.Errorf("%s at offset %d: %w", path, start, err)
		}
	}
}

// Replay re-reads the log in order and hands each event, fault and round
// record on disk with seq > afterSeq to fn, stopping on the first fn
// error.
// Meta records are skipped (Open already validated them). The torn tail
// of the last segment, if any, is ignored and reported. Records missing
// between afterSeq and the oldest segment fail with ErrCorrupt, unless
// the checkpoint covers them (purged, as `updatectl wal verify`'s
// Replay(0) finds them).
func (l *Log) Replay(afterSeq int64, fn func(*Record) error) (ReplayInfo, error) {
	info := ReplayInfo{LastSeq: l.lastSeq}
	if n := len(l.segments); n > 0 {
		if base := l.segments[0].Base; l.ckpt != nil && l.ckpt.ID.Seq >= base {
			afterSeq = max(afterSeq, base)
		}
		info.Truncated = l.segments[n-1].Truncated
	}
	err := EmitFrames(l.segments, afterSeq, l.lastSeq, func(_ []byte, rec *Record) error {
		if err := fn(rec); err != nil {
			return err
		}
		info.Records++
		return nil
	})
	return info, err
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
	cp := *ck
	return l.writeCheckpoint(&cp)
}

// writeCheckpoint durably replaces checkpoint.json with ck — with
// WithKeepSegments also archived under its seq, so historical crash
// images can be reconstructed at any prefix — and advances the sequence
// floor to the seq it covers.
func (l *Log) writeCheckpoint(ck *Checkpoint) error {
	data, err := AppendCheckpoint(nil, ck)
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(l.dir, checkpointName, data); err != nil {
		return err
	}
	if l.keep {
		if err := WriteFileAtomic(l.dir, fmt.Sprintf("checkpoint-%016x.json", ck.ID.Seq), data); err != nil {
			return err
		}
	}
	l.ckpt = ck
	l.lastSeq = ck.ID.Seq
	return nil
}

// OpenWriter opens the newest segment for appending, creating the first
// segment (with a leading meta record) on a fresh log. A torn tail is
// truncated away first, so appends always extend the last valid frame.
// meta describes the daemon's world; it is verified against the log's
// recorded meta and used for any newly created segment.
func (l *Log) OpenWriter(meta *Meta, id ID, rounds int64) (*Writer, error) {
	if err := l.removeLeftovers(); err != nil {
		return nil, err
	}
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
		return l.startSegment(f, ID{VT: id.VT, Seq: seg.Base}, rounds)
	}
	return newWriter(f, l.policy, l.lastSeq), nil
}

// removeLeftovers deletes the temp files of WriteFileAtomic calls that a
// crash cut off before their rename (checkpoint.json.tmp*,
// term.json.tmp*); nothing else ever removes them. Only the directory's
// owner runs it, on opening its writer: a reader beside a live daemon
// (updatectl wal info) would unlink a temp file the daemon is about to
// rename and fail its checkpoint.
func (l *Log) removeLeftovers() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".json"+tmpSuffix) {
			if err := os.Remove(filepath.Join(l.dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// startSegment writes the leading meta record, carrying the sequence
// base id.Seq, to f positioned at the start of an empty segment file,
// and returns the writer that appends after it. It closes f on failure.
func (l *Log) startSegment(f *os.File, id ID, rounds int64) (*Writer, error) {
	w := newWriter(f, l.policy, id.Seq)
	err := w.Append(&Record{Type: TypeMeta, ID: id, Rounds: rounds, Meta: l.meta})
	if err == nil {
		err = w.Commit()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func (l *Log) createSegment(id ID, rounds int64) (*Writer, error) {
	path := filepath.Join(l.dir, segmentName(id.Seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	w, err := l.startSegment(f, id, rounds)
	if err != nil {
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
	if err := l.writeCheckpoint(&Checkpoint{Format: CheckpointFormat, ID: id, Rounds: rounds, State: state}); err != nil {
		return nil, err
	}
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

// tmpSuffix marks WriteFileAtomic's temp files: <name>.tmp<random>.
const tmpSuffix = ".tmp"

// WriteFileAtomic durably replaces dir/name with data: temp file, write,
// fsync, rename, directory fsync. A crash leaves the old file or the new
// one, never a torn mix, plus at most a stray temp file that the next
// OpenWriter removes. The checkpoint and the replication term (the two files
// beside the segments) are both written this way.
func WriteFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+tmpSuffix+"*")
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
