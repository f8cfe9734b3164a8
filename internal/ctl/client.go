package ctl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"netupdate/internal/obs"
)

// Client talks the controller protocol over one TCP connection, in
// either codec. It is safe for concurrent use, and concurrent calls
// pipeline on the connection: a call writes its request as soon as it
// is made and reads its own response once the responses ahead of it
// have been read. Servers answer a connection's requests in request
// order, so no request IDs are needed, and a lone caller writes and
// then reads with no goroutine in between. A transport failure fails
// every call in flight and every later call.
type Client struct {
	typed // the typed Backend methods, over roundTrip

	conn net.Conn
	// binary selects the v2 framed codec; JSON v1 lines otherwise.
	binary bool

	// The write half, under wmu. wbuf is the reused request-frame build
	// buffer; last is closed once the response to the latest written
	// request has been read, which is the next call's turn to read.
	wmu  sync.Mutex
	enc  *json.Encoder
	wbuf []byte
	last chan struct{}
	// spanOn/spanOrigin: when enabled, submit/submit-batch requests
	// carry a span context stamped at send time.
	spanOn     bool
	spanOrigin uint16
	// shardOn: when enabled, submit/submit-batch requests ask for
	// per-verdict shard attribution.
	shardOn bool

	// The read half, used only by the call whose turn it is to read.
	dec  *json.Decoder
	br   *bufio.Reader
	rbuf []byte

	// err is the connection's sticky failure, set once under errMu.
	errMu sync.Mutex
	err   error
}

// Dial connects to a controller at addr, speaking JSON v1.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctl: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// DialBinary connects to a controller at addr, speaking the binary v2
// framing. The server detects the codec from the first frame's magic
// byte, so no handshake round-trip is needed.
func DialBinary(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctl: dial %s: %w", addr, err)
	}
	return NewBinaryClient(conn), nil
}

// NewClient wraps an established connection with the JSON v1 codec.
func NewClient(conn net.Conn) *Client {
	c := newClient(conn)
	c.enc = json.NewEncoder(conn)
	c.dec = json.NewDecoder(conn)
	return c
}

// NewBinaryClient wraps an established connection with the binary v2
// codec.
func NewBinaryClient(conn net.Conn) *Client {
	c := newClient(conn)
	c.binary = true
	c.br = bufio.NewReader(conn)
	return c
}

func newClient(conn net.Conn) *Client {
	c := &Client{conn: conn, last: make(chan struct{})}
	close(c.last) // the first call reads at once
	c.typed.request = c.roundTrip
	return c
}

// Close closes the connection: calls in flight and later calls fail.
func (c *Client) Close() error {
	return c.fail(net.ErrClosed)
}

// fail makes err the connection's sticky failure, unless it already has
// one, and closes the connection so every call blocked on it returns.
func (c *Client) fail(err error) error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.err != nil {
		return nil
	}
	c.err = err
	return c.conn.Close()
}

// failed returns the sticky failure, nil while the connection is up.
func (c *Client) failed() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// EnableSpans attaches a latency span context (origin identity + submit
// wall stamp) to every subsequent submit and submit-batch request. On
// the binary codec the context rides behind a flag bit that pre-span
// servers reject, so callers must first confirm support — dial, call
// Features, and enable only when FeatureSpanContext is present. JSON v1
// servers of any age simply ignore the unknown field.
func (c *Client) EnableSpans(origin uint16) {
	c.wmu.Lock()
	c.spanOn = true
	c.spanOrigin = origin
	c.wmu.Unlock()
}

// EnableShardInfo asks for per-verdict shard attribution on every
// subsequent submit and submit-batch request. On the binary codec the
// request sets a flag bit (ignored by pre-shard servers, which answer
// with plain verdicts); callers wanting a guarantee should confirm
// FeatureShardVerdicts via Features first. JSON v1 servers simply omit
// the field. Single-shard servers leave Shard zero either way.
func (c *Client) EnableShardInfo() {
	c.wmu.Lock()
	c.shardOn = true
	c.wmu.Unlock()
}

// roundTrip sends one request and reads its response.
func (c *Client) roundTrip(req Request) (Response, error) {
	// The transport owns the wire version: a request forwarded from
	// another connection (a gateway re-routing what it decoded) still
	// carries that connection's version stamp, and a v2 stamp inside a
	// JSON body would be rejected by the receiver's v1 parser.
	req.Version = 0
	turn, done, err := c.send(&req)
	if err != nil {
		return Response{}, fmt.Errorf("ctl: send %s: %w", req.Op, err)
	}
	<-turn
	resp, err := c.recv()
	close(done)
	if err != nil {
		return Response{}, fmt.Errorf("ctl: recv %s: %w", req.Op, err)
	}
	return resp, respError(req.Op, &resp)
}

// send writes req and returns the channel whose close makes it req's
// turn to read, and the one to close once req's response is read.
func (c *Client) send(req *Request) (turn <-chan struct{}, done chan struct{}, err error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.failed(); err != nil {
		return nil, nil, err
	}
	if req.Op == OpSubmit || req.Op == OpSubmitBatch {
		if c.spanOn && req.Span == nil {
			req.Span = &obs.SpanContext{Origin: c.spanOrigin, SubmitWallNs: time.Now().UnixNano()}
		}
		if c.shardOn {
			req.ShardInfo = true
		}
	}
	if c.binary {
		frame, err := AppendRequestFrame(c.wbuf[:0], req)
		if err != nil {
			return nil, nil, err // nothing was written
		}
		c.wbuf = frame[:0]
		_, err = c.conn.Write(frame)
	} else {
		err = c.enc.Encode(req)
	}
	if err != nil {
		// A torn request desynchronizes the stream for every call; the
		// close error adds nothing to err.
		_ = c.fail(err)
		return nil, nil, err
	}
	turn, done = c.last, make(chan struct{})
	c.last = done
	return turn, done, nil
}

// recv reads the next response off the connection. Only the call whose
// turn it is calls it.
func (c *Client) recv() (Response, error) {
	if err := c.failed(); err != nil {
		return Response{}, err
	}
	var resp Response
	var err error
	if c.binary {
		var rp *Response
		if c.rbuf, err = readFrame(c.br, c.rbuf); err == nil {
			rp, err = decodeResponseFrame(c.rbuf)
		}
		if err == nil {
			resp = *rp
		}
	} else {
		err = c.dec.Decode(&resp)
	}
	if err != nil {
		_ = c.fail(err)
	}
	return resp, err
}

// respError maps a failed response to the protocol's typed errors. It is
// the one place the wire-level failure taxonomy is interpreted, shared by
// the remote Client's and the in-process Server's request functions.
func respError(op Op, resp *Response) error {
	if resp.OK {
		return nil
	}
	// An overload rejection carries structured retry guidance: surface
	// it as a typed error so callers can match errors.Is(err,
	// ErrOverloaded) and back off by the hint.
	if ov := resp.Overload; ov != nil {
		return &OverloadError{
			QueueDepth: ov.QueueDepth,
			Watermark:  ov.Watermark,
			RetryAfter: ov.RetryAfter(),
		}
	}
	// A role rejection is typed too: errors.Is(err, ErrNotLeader)
	// with the leader's address as a redirect hint.
	if nl := resp.NotLeader; nl != nil {
		return &NotLeaderError{Role: nl.Role, Term: nl.Term, LeaderAddr: nl.LeaderAddr}
	}
	return fmt.Errorf("ctl: %s: %s", op, resp.Error)
}

// Do sends one raw request and returns the raw response, bypassing the
// typed error mapping: a refusal comes back as Response{OK: false} with
// the structured rejection payloads intact. A transport failure is
// folded into the same shape so gateway-style callers fan in uniformly.
func (c *Client) Do(req Request) Response {
	resp, err := c.roundTrip(req)
	if err != nil && resp.Error == "" && resp.Overload == nil && resp.NotLeader == nil {
		// Transport failure: roundTrip returned a zero Response.
		return Response{OK: false, Error: err.Error()}
	}
	return resp
}

// Backoff bounds for SubmitBatchRetry: each round waits the larger of
// the server's retry-after hint and base<<round, capped.
const (
	retryBackoffBase = 10 * time.Millisecond
	retryBackoffCap  = 2 * time.Second
)

// SubmitBatchRetry submits events, resubmitting overload-rejected ones
// with capped exponential backoff that honors the server's retry-after
// hint. Resubmissions are marked (Request.Retry) so the server counts
// them. It returns accepted event IDs aligned with the input (0 = not
// accepted). The error is non-nil if any event was rejected for
// validation — matching errors.Is(err, ErrBadRequest) — or still refused
// for overload after maxAttempts rounds — matching errors.Is(err,
// ErrOverloaded). Any other error is a request that failed as a whole.
func (c *Client) SubmitBatchRetry(events []EventSpec, maxAttempts int) ([]int64, error) {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	ids := make([]int64, len(events))
	pending := make([]int, len(events)) // indexes into events still unsubmitted
	for i := range events {
		pending[i] = i
	}
	var invalid error
	var lastOverload *OverloadInfo
	for attempt := 0; len(pending) > 0 && attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			// Clamp the shift before it can overflow time.Duration: past a
			// handful of doublings the exponential curve is above the cap
			// anyway (an unclamped shift goes negative near attempt 40 and
			// would turn the wait into a hot loop).
			wait := retryBackoffCap
			if shift := attempt - 1; shift < 30 && retryBackoffBase<<shift < retryBackoffCap {
				wait = retryBackoffBase << shift
			}
			if lastOverload != nil && lastOverload.RetryAfter() > wait {
				wait = lastOverload.RetryAfter()
			}
			if wait > retryBackoffCap {
				wait = retryBackoffCap
			}
			time.Sleep(wait)
		}
		batch := make([]EventSpec, len(pending))
		for i, idx := range pending {
			batch[i] = events[idx]
		}
		verdicts, overload, err := c.submitBatch(batch, attempt > 0)
		if err != nil {
			return ids, err
		}
		lastOverload = overload
		next := pending[:0]
		for i, v := range verdicts {
			idx := pending[i]
			switch {
			case v.OK:
				ids[idx] = v.EventID
			case v.Overloaded:
				next = append(next, idx)
			default:
				// Validation failure: retrying an invalid spec cannot help.
				if invalid == nil {
					invalid = fmt.Errorf("ctl: submit-batch: event %d rejected: %w", idx, rejection(v.Error))
				}
			}
		}
		pending = next
	}
	if invalid != nil {
		return ids, invalid
	}
	if len(pending) > 0 {
		err := &OverloadError{}
		if lastOverload != nil {
			err.QueueDepth = lastOverload.QueueDepth
			err.Watermark = lastOverload.Watermark
			err.RetryAfter = lastOverload.RetryAfter()
		}
		return ids, fmt.Errorf("ctl: submit-batch: %d events still rejected after %d attempts: %w", len(pending), maxAttempts, err)
	}
	return ids, nil
}

// rejection is an event's validation verdict read back as an error. It
// matches ErrBadRequest, which tells it from a request that failed as a
// whole.
type rejection string

func (r rejection) Error() string        { return string(r) }
func (r rejection) Is(target error) bool { return target == ErrBadRequest }

// ReplStatus reports the server's replication state: role, term, log
// position, registered followers (on a leader) or leader address and
// lag (on a follower).
func (c *Client) ReplStatus() (ReplInfo, error) {
	resp, err := c.roundTrip(Request{Op: OpReplStatus})
	return need(OpReplStatus, resp.Repl, err)
}

// Promote asks a follower to take over as leader: it stops streaming,
// folds what it acked, drains to quiescence, persists a bumped term and
// starts accepting writes. Promoting a server that is already the
// leader is a no-op; a deposed leader refuses.
func (c *Client) Promote() (ReplInfo, error) {
	resp, err := c.roundTrip(Request{Op: OpReplPromote})
	return need(OpReplPromote, resp.Repl, err)
}

// WaitDone polls until the event completes or the timeout elapses,
// returning the final status. Poll interval is 10ms.
func (c *Client) WaitDone(eventID int64, timeout time.Duration) (EventStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.Status(eventID)
		if err != nil {
			return EventStatus{}, err
		}
		switch st.State {
		case StateDone:
			return st, nil
		case StateUnknown:
			return st, fmt.Errorf("ctl: wait: unknown event %d", eventID)
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("ctl: wait: event %d still %s after %v", eventID, st.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
