package wal

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Writer appends records to one segment file. It is not safe for
// concurrent use; the ctl server confines it to the state loop, which
// is the only goroutine that admits inputs.
//
// Append buffers; Commit makes everything appended so far durable
// according to the sync policy. The server calls Commit before replying
// to the requests whose records it covers — append-before-ack — so an
// acknowledged verdict is always recoverable.
type Writer struct {
	f      *os.File
	bw     *bufio.Writer
	policy SyncPolicy
	buf    []byte

	lastSeq int64
	dirty   bool

	commits int64
	syncs   int64

	// syncObserver, when set, receives the wall-clock duration of each
	// fsync in nanoseconds (one call per sync: per group commit under
	// SyncGroup, per append under SyncAlways).
	syncObserver func(ns int64)
}

func newWriter(f *os.File, policy SyncPolicy, lastSeq int64) *Writer {
	return &Writer{
		f:       f,
		bw:      bufio.NewWriterSize(f, 1<<16),
		policy:  policy,
		lastSeq: lastSeq,
	}
}

// LastSeq returns the sequence number of the last appended record (or
// the segment base if nothing has been appended yet).
func (w *Writer) LastSeq() int64 { return w.lastSeq }

// Policy returns the writer's sync policy.
func (w *Writer) Policy() SyncPolicy { return w.policy }

// SetSyncObserver registers fn to receive each fsync's wall-clock
// duration in nanoseconds (nil disables). Called from the writer's
// owning goroutine, synchronously inside Commit.
func (w *Writer) SetSyncObserver(fn func(ns int64)) { w.syncObserver = fn }

// Stats returns lifetime counters for this writer: commits that had
// something to flush, and fsyncs issued.
func (w *Writer) Stats() (commits, syncs int64) { return w.commits, w.syncs }

// LastFrame returns the encoded frame (header and payload) of the last
// successful Append — the bytes replication ships, so a record is
// encoded once. The slice is valid until the next Append.
func (w *Writer) LastFrame() []byte { return w.buf }

// Append encodes rec and buffers it. rec.ID.Seq must be exactly
// lastSeq+1 (meta records, which carry the segment base, are exempt).
// Under SyncAlways an input record is flushed and fsynced immediately; a
// round record (TypeRound) is a memo nothing waits on, so it is never
// synced on its own under any policy: the next commit makes it durable.
func (w *Writer) Append(rec *Record) error {
	if rec.Type != TypeMeta && rec.ID.Seq != w.lastSeq+1 {
		return fmt.Errorf("%w: append seq %d after %d", ErrSeq, rec.ID.Seq, w.lastSeq)
	}
	buf, err := AppendFrame(w.buf[:0], rec)
	if err != nil {
		w.buf = buf[:0]
		return err
	}
	w.buf = buf
	if _, err := w.bw.Write(buf); err != nil {
		return err
	}
	if rec.Type != TypeMeta {
		w.lastSeq = rec.ID.Seq
	}
	w.dirty = true
	if w.policy == SyncAlways && rec.Type != TypeRound {
		return w.Commit()
	}
	return nil
}

// Commit flushes buffered records to the file and, unless the policy is
// SyncOff, fsyncs. It is a no-op when nothing was appended since the
// last commit.
func (w *Writer) Commit() error {
	if !w.dirty {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if w.policy != SyncOff {
		if w.syncObserver != nil {
			t0 := time.Now()
			if err := w.f.Sync(); err != nil {
				return err
			}
			w.syncObserver(int64(time.Since(t0)))
		} else if err := w.f.Sync(); err != nil {
			return err
		}
		w.syncs++
	}
	w.dirty = false
	w.commits++
	return nil
}

// Close commits outstanding records and closes the segment file.
func (w *Writer) Close() error {
	err := w.Commit()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
