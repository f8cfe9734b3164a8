package ctl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// WireServer owns the connection-facing half of a controller: the accept
// loop, the per-connection routing by first byte (binary v2 frames or a
// magic-routed raw stream), and response encoding. It is the one wire
// surface both the in-process engine server (Server) and the
// shard-routing gateway (internal/shard) serve the protocol through, so
// codec behavior — including the flag-gated verdict shard extension —
// cannot drift between them.
//
// A WireServer never touches engine state: every decoded request goes to
// Handle, which runs on the connection goroutine and must be safe for
// concurrent calls.
type WireServer struct {
	// Handle answers one decoded request. ingestWall is the server wall
	// clock when the request came off the wire (the span pipeline's
	// ingest stamp). Required.
	Handle func(req Request, ingestWall int64) Response
	// Stream, when non-nil, takes over a connection whose first byte is
	// StreamMagic (a raw replication stream). Without it such
	// connections are refused like any other unknown first byte.
	Stream func(conn net.Conn, br *bufio.Reader)
	// StreamMagic is the first byte routed to Stream (e.g.
	// repl.StreamMagic). Ignored when Stream is nil.
	StreamMagic byte
	// FramesV2/CodecConns observe decoded requests and live control
	// connections; either may be nil.
	FramesV2   interface{ Inc() }
	CodecConns interface{ Add(int64) }

	mu       sync.Mutex
	listener net.Listener
	open     map[net.Conn]struct{}
	closed   bool
	closing  chan struct{}
	conns    sync.WaitGroup
	initOnce sync.Once
}

// init lazily builds the channel/map fields so a zero-value-plus-Handle
// WireServer works.
func (w *WireServer) init() {
	w.initOnce.Do(func() {
		w.open = make(map[net.Conn]struct{})
		w.closing = make(chan struct{})
	})
}

// Closing returns a channel closed when Close begins, for fast-failing
// work racing shutdown.
func (w *WireServer) Closing() <-chan struct{} {
	w.init()
	return w.closing
}

// Serve accepts connections on l until Close. It returns ErrServerClosed
// after a clean shutdown.
func (w *WireServer) Serve(l net.Listener) error {
	w.init()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrServerClosed
	}
	w.listener = l
	w.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-w.closing:
				return ErrServerClosed
			default:
				return fmt.Errorf("ctl: accept: %w", err)
			}
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			if cerr := conn.Close(); cerr != nil {
				return fmt.Errorf("ctl: closing late conn: %w", cerr)
			}
			return ErrServerClosed
		}
		w.open[conn] = struct{}{}
		w.mu.Unlock()

		w.conns.Add(1)
		go w.handleConn(conn)
	}
}

// ListenAndServe listens on addr and serves until Close.
func (w *WireServer) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("ctl: listen: %w", err)
	}
	return w.Serve(l)
}

// Close stops accepting, closes open connections and waits for every
// connection handler to exit. Idempotent. Handlers may still have work
// in flight when closing fires; the owner's Handle keeps answering
// (typically with ErrServerClosed) until conns drain — see
// Server.drainOnClose for the engine-server sequencing.
func (w *WireServer) Close() error {
	w.init()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	close(w.closing)
	var firstErr error
	if w.listener != nil {
		firstErr = w.listener.Close()
	}
	for conn := range w.open {
		// A stream session may have already closed its own conn (follower
		// detach, ack-reader failure); that is its normal end state, not a
		// close failure.
		if err := conn.Close(); err != nil && firstErr == nil && !errors.Is(err, net.ErrClosed) {
			firstErr = err
		}
	}
	w.mu.Unlock()
	w.conns.Wait()
	return firstErr
}

// handleConn serves one client, routed by its first byte: FrameMagic
// opens a binary v2 control stream, StreamMagic a raw stream
// (replication). Any other byte gets one error line naming it and the
// connection is closed.
func (w *WireServer) handleConn(conn net.Conn) {
	defer w.conns.Done()
	defer func() {
		w.mu.Lock()
		delete(w.open, conn)
		w.mu.Unlock()
		_ = conn.Close() // double-close on shutdown path is harmless
	}()

	br := bufio.NewReader(conn)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	switch {
	case first[0] == FrameMagic:
		w.serveBinary(conn, br)
	case w.Stream != nil && first[0] == w.StreamMagic:
		w.Stream(conn, br)
	default:
		// Best effort: the connection is closed next whether or not the
		// peer reads the line.
		_, _ = fmt.Fprintf(conn, "%v: first byte 0x%02x, want frame magic 0x%02x\n",
			ErrBadRequest, first[0], FrameMagic)
	}
}

// serveBinary answers a stream of binary v2 frames. Responses are
// buffered and flushed only before a read would block, so a pipelining
// client streaming many frames gets its responses in large writes
// without a flush (or a round-trip stall) per request.
func (w *WireServer) serveBinary(conn net.Conn, br *bufio.Reader) {
	if w.CodecConns != nil {
		w.CodecConns.Add(1)
		defer w.CodecConns.Add(-1)
	}
	bw := bufio.NewWriterSize(conn, 64<<10)
	var frame, out []byte
	for {
		// Flush pending responses before a blocking read: if the client
		// has nothing more buffered for us, it is waiting on an answer.
		if bw.Buffered() > 0 && br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		var err error
		frame, err = readFrame(br, frame)
		if errors.Is(err, ErrBadRequest) {
			// The stream cannot be resynchronized past a corrupt header;
			// answer the error and drop the connection.
			out, _ = AppendResponseFrame(out[:0], &Response{OK: false, Error: err.Error()})
			_, _ = bw.Write(out)
			_ = bw.Flush()
			return
		}
		if err != nil {
			return
		}
		req, err := ParseRequest(frame)
		if err != nil {
			// A framed but invalid request (bad version byte, unknown op,
			// bad payload): answer the error, keep the connection.
			out, err = AppendResponseFrame(out[:0], &Response{OK: false, Error: err.Error()})
			if err != nil {
				return
			}
			if _, err := bw.Write(out); err != nil {
				return
			}
			continue
		}
		if w.FramesV2 != nil {
			w.FramesV2.Inc()
		}
		resp := w.Handle(*req, time.Now().UnixNano())
		// The verdict shard extension is request-gated: only a frame that
		// asked for shard info gets the extended verdict encoding.
		out, err = AppendResponseFrameFor(out[:0], &resp, req.ShardInfo)
		if err != nil {
			return
		}
		if _, err := bw.Write(out); err != nil {
			return
		}
	}
}
