// Raw frame re-emission for replication catch-up: a leader streams the
// exact frame bytes sitting in its segment files to a follower resuming
// from an arbitrary sequence number. The scanned FrameEnds offsets let
// the reader seek straight to the first needed frame instead of
// decoding the whole segment.
package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// EmitFrames streams the raw frame bytes of every event/fault record
// with seq in (afterSeq, upTo] to fn, reading from the segment files
// described by segs (a snapshot of Log.Segments taken while records
// through upTo were durably flushed). fn receives the framed bytes
// (header plus payload) and the decoded record; the byte slice is only
// valid during the call.
//
// The snapshot may be older than the files: only the newest segment
// grows, so frames past its scanned FrameEnds are read sequentially
// until upTo is reached, while resume points inside the scanned range
// seek directly to their FrameEnds boundary. Concurrent appends past
// upTo are never read, so a live writer on the same files is safe.
func EmitFrames(segs []SegmentInfo, afterSeq, upTo int64, fn func(frame []byte, rec *Record) error) error {
	emitted := afterSeq
	for i := range segs {
		if emitted >= upTo {
			break
		}
		seg := &segs[i]
		// Non-final segments are immutable, so their scanned LastSeq is
		// authoritative; the final segment may hold frames past the scan.
		if i < len(segs)-1 && seg.LastSeq <= emitted {
			continue
		}
		if err := emitSegment(seg, &emitted, upTo, fn); err != nil {
			return fmt.Errorf("%s: %w", seg.Path, err)
		}
	}
	if emitted < upTo {
		return fmt.Errorf("wal: emit: frames end at seq %d, want %d", emitted, upTo)
	}
	return nil
}

func emitSegment(seg *SegmentInfo, emitted *int64, upTo int64, fn func([]byte, *Record) error) error {
	f, err := os.Open(seg.Path)
	if err != nil {
		return err
	}
	defer f.Close()

	// FrameEnds[k] closes frame k: the meta record for k = 0, record seq
	// Base+k past it. Seek past every frame the resume point covers that
	// the scan knew about; anything further is skipped frame by frame.
	if skip := *emitted - seg.Base; skip > 0 && len(seg.FrameEnds) > 0 {
		idx := skip
		if idx > int64(len(seg.FrameEnds)-1) {
			idx = int64(len(seg.FrameEnds) - 1)
		}
		if _, err := f.Seek(seg.FrameEnds[idx], io.SeekStart); err != nil {
			return err
		}
	}

	br := bufio.NewReaderSize(f, 1<<16)
	var frame []byte
	for *emitted < upTo {
		var rec *Record
		rec, frame, err = ReadFrame(br, frame)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// A torn tail can only trail the frames we need (those were
			// committed before the snapshot), so reaching it means this
			// segment is exhausted.
			return nil
		}
		if err != nil {
			return err
		}
		if rec.Type == TypeMeta || rec.ID.Seq <= *emitted {
			continue
		}
		if rec.ID.Seq != *emitted+1 {
			return fmt.Errorf("%w: emit seq %d after %d", ErrCorrupt, rec.ID.Seq, *emitted)
		}
		if err := fn(frame, rec); err != nil {
			return err
		}
		*emitted = rec.ID.Seq
	}
	return nil
}
