package ctl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"netupdate/internal/obs"
)

// ErrInFlight marks a SubmitBatch error where the request had already
// claimed its in-flight slot when the connection failed: the callback
// still receives exactly one BatchResult for it (via the reader's
// drain). An error NOT wrapping ErrInFlight means the batch never left
// the client and no callback will fire for it.
var ErrInFlight = errors.New("ctl: pipeline: connection failed with request in flight")

// BatchResult is one pipelined submit-batch outcome, delivered to the
// Pipeline's callback in submission order.
type BatchResult struct {
	// Verdicts and Overload mirror Client.SubmitBatch's results.
	Verdicts []SubmitVerdict
	Overload *OverloadInfo
	// Latency is the wall time from write to response for this batch.
	// Under pipelining it includes queuing behind earlier in-flight
	// batches, which is exactly the submit latency a client observes.
	Latency time.Duration
	// Err is set when the batch's response never arrived (connection
	// failure); Verdicts is nil then.
	Err error
}

// Pipeline streams submit-batch requests over one binary v2 connection
// without waiting for each response: up to window batches ride the wire
// concurrently, and a reader goroutine matches responses to requests by
// order (the protocol answers every frame, in order). This removes the
// per-request round-trip stall that caps a plain Client's throughput at
// RTT * batch size.
//
// SubmitBatch may be called from many goroutines; writes are serialized
// and block once window batches are in flight (backpressure). Results
// are delivered to the callback from the reader goroutine, one call at
// a time.
type Pipeline struct {
	conn     net.Conn
	onResult func(BatchResult)

	sendMu sync.Mutex
	buf    []byte
	closed bool
	// failErr is the sticky first connection error; once set, further
	// submissions fail immediately.
	failMu  sync.Mutex
	failErr error

	// inflight carries each batch's send time to the reader, bounding
	// the number of unanswered batches at the channel's capacity.
	inflight    chan time.Time
	outstanding sync.WaitGroup
	stop        chan struct{}
	readerDone  chan struct{}

	// spanOn/spanOrigin: when enabled (EnableSpans), every batch carries
	// a span context stamped at send time.
	spanOn     bool
	spanOrigin uint16
}

// DialPipeline connects to a controller at addr and returns a pipeline
// with the given window (<= 0 means 32). onResult receives every
// batch's outcome; it must not be nil.
func DialPipeline(addr string, window int, onResult func(BatchResult)) (*Pipeline, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctl: dial %s: %w", addr, err)
	}
	return NewPipeline(conn, window, onResult), nil
}

// NewPipeline wraps an established connection. See DialPipeline.
func NewPipeline(conn net.Conn, window int, onResult func(BatchResult)) *Pipeline {
	if window <= 0 {
		window = 32
	}
	p := &Pipeline{
		conn:       conn,
		onResult:   onResult,
		inflight:   make(chan time.Time, window),
		stop:       make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	go p.readLoop()
	return p
}

// EnableSpans attaches a latency span context (origin identity + submit
// wall stamp) to every subsequent batch. The pipeline speaks the binary
// codec, where the context rides behind a flag bit pre-span servers
// reject — callers must first confirm the server advertises
// FeatureSpanContext (Client.Features over a plain connection). Not
// safe to call concurrently with SubmitBatch.
func (p *Pipeline) EnableSpans(origin uint16) {
	p.sendMu.Lock()
	p.spanOn = true
	p.spanOrigin = origin
	p.sendMu.Unlock()
}

// fail records the first connection error.
func (p *Pipeline) fail(err error) {
	p.failMu.Lock()
	if p.failErr == nil {
		p.failErr = err
	}
	p.failMu.Unlock()
}

// failed returns the sticky connection error, nil while healthy.
func (p *Pipeline) failed() error {
	p.failMu.Lock()
	defer p.failMu.Unlock()
	return p.failErr
}

// SubmitBatch queues one submit-batch request on the wire and returns
// once it is written — the outcome arrives at the callback. It blocks
// while window batches are unanswered. retry marks the request as a
// backoff resubmission.
func (p *Pipeline) SubmitBatch(events []EventSpec, retry bool) error {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	if p.closed {
		return ErrServerClosed
	}
	if err := p.failed(); err != nil {
		return err
	}
	// Reserve an in-flight slot before writing; the reader releases it
	// when the response (or the connection's death) arrives.
	now := time.Now()
	p.inflight <- now
	p.outstanding.Add(1)
	req := Request{Op: OpSubmitBatch, Events: events, Retry: retry}
	if p.spanOn {
		req.Span = &obs.SpanContext{Origin: p.spanOrigin, SubmitWallNs: now.UnixNano()}
	}
	frame, err := AppendRequestFrame(p.buf[:0], &req)
	if err != nil {
		// Nothing hit the wire: hand the slot back ourselves.
		<-p.inflight
		p.outstanding.Done()
		return err
	}
	p.buf = frame[:0]
	if _, err := p.conn.Write(frame); err != nil {
		// The write may have partially landed; the reader's drain owns
		// the slot and the Done from here on.
		p.fail(err)
		return fmt.Errorf("%w: %v", ErrInFlight, err)
	}
	return nil
}

// readLoop matches response frames to in-flight batches in order.
func (p *Pipeline) readLoop() {
	defer close(p.readerDone)
	br := bufio.NewReaderSize(p.conn, 64<<10)
	var frame []byte
	for {
		var resp *Response
		var err error
		if frame, err = readFrame(br, frame); err == nil {
			resp, err = decodeResponseFrame(frame)
		}
		if err != nil {
			p.fail(err)
			break
		}
		start := <-p.inflight
		res := BatchResult{Latency: time.Since(start)}
		if resp.OK {
			res.Verdicts = resp.Verdicts
			res.Overload = resp.Overload
		} else {
			res.Err = fmt.Errorf("ctl: submit-batch: %s", resp.Error)
			res.Overload = resp.Overload
		}
		p.onResult(res)
		p.outstanding.Done()
	}
	// Connection is dead: every batch still in flight (including writes
	// that erred after reserving their slot) gets an error result.
	err := p.failed()
	for {
		select {
		case start := <-p.inflight:
			p.onResult(BatchResult{Err: err, Latency: time.Since(start)})
			p.outstanding.Done()
		case <-p.stop:
			// Close is waiting; nothing can reserve new slots. Drain any
			// last slot that raced in, then exit.
			for {
				select {
				case start := <-p.inflight:
					p.onResult(BatchResult{Err: err, Latency: time.Since(start)})
					p.outstanding.Done()
				default:
					return
				}
			}
		}
	}
}

// Close waits for every in-flight batch to be answered (or failed),
// then closes the connection. No SubmitBatch may be started after
// Close returns ErrServerClosed to it.
func (p *Pipeline) Close() error {
	p.sendMu.Lock()
	if p.closed {
		p.sendMu.Unlock()
		return nil
	}
	p.closed = true
	p.sendMu.Unlock()

	p.outstanding.Wait()
	close(p.stop)
	err := p.conn.Close()
	<-p.readerDone
	return err
}
