// Raw frame re-emission for replication catch-up and recovery replay: a
// leader streams the exact frame bytes sitting in its segment files to a
// follower resuming from an arbitrary sequence number, and Log.Replay
// reads the same way. The scanned FrameEnds offsets let the reader seek
// straight to the first needed frame instead of decoding the whole
// segment.
package wal

import "fmt"

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
		// FrameEnds[k] closes frame k: the meta record for k = 0, record
		// seq Base+k past it. Seek past every frame the resume point
		// covers that the scan knew about; anything further is skipped
		// frame by frame. A torn tail can only trail the frames we need
		// (those were committed before the snapshot), so reaching it means
		// this segment is exhausted.
		var off int64
		if skip := emitted - seg.Base; skip > 0 && len(seg.FrameEnds) > 0 {
			off = seg.FrameEnds[min(skip, int64(len(seg.FrameEnds)-1))]
		}
		_, err := readSegment(seg.Path, off, func(_ int64, frame []byte, rec *Record) error {
			if rec.Type == TypeMeta || rec.ID.Seq <= emitted {
				return nil
			}
			if rec.ID.Seq != emitted+1 {
				return fmt.Errorf("%w: emit seq %d after %d", ErrCorrupt, rec.ID.Seq, emitted)
			}
			if err := fn(frame, rec); err != nil {
				return err
			}
			if emitted = rec.ID.Seq; emitted >= upTo {
				return errStopSegment
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if emitted < upTo {
		return fmt.Errorf("wal: emit: frames end at seq %d, want %d", emitted, upTo)
	}
	return nil
}
