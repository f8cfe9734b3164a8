package ctl

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"netupdate/internal/obs"
)

// Binary v2 framing. Every frame — request or response — is an 8-byte
// header followed by a length-prefixed payload:
//
//	byte 0   FrameMagic (0xB7; the server routes a connection by its
//	         first byte, see WireServer)
//	byte 1   protocol version (ProtocolVersionBinary), the one place
//	         a request carries it
//	byte 2   frame kind: a binOp* value in requests, a respKind* value
//	         in responses
//	byte 3   flags (requests: bit0 = Retry)
//	bytes 4-7  payload length, uint32 little-endian
//
// The hot request path — submit-batch — has a dense native encoding;
// every other operation wraps its JSON body (the Request / Response
// struct tags) in a binOpJSON / respKindJSON frame, so the rare ops stay
// trivially in sync with the JSON schema.
const (
	// ProtocolVersionBinary is the wire version of the binary framing.
	ProtocolVersionBinary = 2

	// FrameMagic is the first byte of every binary frame.
	FrameMagic byte = 0xB7

	// FrameHeaderSize is the fixed header length.
	FrameHeaderSize = 8

	// MaxFramePayload bounds a frame's payload (16 MiB), limiting what a
	// bad length prefix can make the server allocate.
	MaxFramePayload = 1 << 24
)

// Request frame kinds.
const (
	binOpPing        byte = 1
	binOpSubmitBatch byte = 2
	binOpJSON        byte = 3
)

// Response frame kinds.
const (
	respKindJSON     byte = 1
	respKindVerdicts byte = 2
)

// Request flag bits.
const (
	reqFlagRetry byte = 1 << 0
	// reqFlagSpan marks a submit-batch frame whose payload is prefixed
	// with a 10-byte span context (u16 origin + u64 submit wall ns).
	// Pre-span v2 servers reject the unexpected bytes, so clients only
	// set it after the ping response advertised FeatureSpanContext.
	reqFlagSpan byte = 1 << 1
	// reqFlagShard asks the server to stamp each verdict of the response
	// with its owning shard (verdict flag bit verdictFlagShard + u16).
	// Pre-shard servers ignore unknown request flag bits, so a response
	// to a flagged request from an old server simply omits the shard —
	// clients therefore only set it after the ping response advertised
	// FeatureShardVerdicts.
	reqFlagShard byte = 1 << 2
)

// Verdict flag bits of the dense submit-batch response encoding. Bits 0
// and 1 (OK, Overloaded) predate sharding; verdictFlagShard marks a
// verdict followed by a u16 shard ID and is only ever set when the
// request carried reqFlagShard, keeping shard-less frames byte-identical.
const (
	verdictFlagOK         byte = 1 << 0
	verdictFlagOverloaded byte = 1 << 1
	verdictFlagShard      byte = 1 << 2
)

// spanCtxWireSize is the encoded size of the flag-gated span context.
const spanCtxWireSize = 10

// Submit-batch payload caps: far above any sane batch, far below what a
// hostile length field could otherwise demand.
const (
	maxBatchEvents    = 1 << 20
	maxFlowsPerEvent  = 1 << 16
	maxVerdictsDecode = 1 << 20
)

// readFrame reads one binary v2 frame, header and payload, from r into
// buf (grown when too small) and returns it. A header with the wrong
// magic or a length past MaxFramePayload wraps ErrBadRequest: the stream
// cannot be resynchronized past it. Read errors come back as they are.
// Decoding is the caller's — ParseRequest for requests,
// decodeResponseFrame for responses.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < FrameHeaderSize {
		buf = make([]byte, FrameHeaderSize, 4096)
	}
	buf = buf[:FrameHeaderSize]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	n := binary.LittleEndian.Uint32(buf[4:8])
	if buf[0] != FrameMagic || n > MaxFramePayload {
		return buf, fmt.Errorf("%w: bad frame header", ErrBadRequest)
	}
	need := FrameHeaderSize + int(n)
	if cap(buf) < need {
		grown := make([]byte, need)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:need]
	_, err := io.ReadFull(r, buf[FrameHeaderSize:])
	return buf, err
}

// putHeader writes a frame header in place.
func putHeader(h []byte, kind, flags byte, payloadLen int) {
	h[0] = FrameMagic
	h[1] = ProtocolVersionBinary
	h[2] = kind
	h[3] = flags
	binary.LittleEndian.PutUint32(h[4:8], uint32(payloadLen))
}

// AppendRequestFrame appends req encoded as one binary v2 frame to buf
// and returns the extended slice. Submit-batch requests use the dense
// native encoding; everything else is a JSON envelope frame.
func AppendRequestFrame(buf []byte, req *Request) ([]byte, error) {
	start := len(buf)
	buf = append(buf, make([]byte, FrameHeaderSize)...)
	var kind, flags byte
	if req.Retry {
		flags |= reqFlagRetry
	}
	switch req.Op {
	case OpPing:
		kind = binOpPing
	case OpSubmitBatch:
		kind = binOpSubmitBatch
		if req.ShardInfo {
			flags |= reqFlagShard
		}
		if req.Span != nil {
			flags |= reqFlagSpan
			buf = binary.LittleEndian.AppendUint16(buf, req.Span.Origin)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(req.Span.SubmitWallNs))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(req.Events)))
		for i := range req.Events {
			ev := &req.Events[i]
			if len(ev.Kind) > 255 {
				return nil, fmt.Errorf("%w: event kind longer than 255 bytes", ErrBadRequest)
			}
			if len(ev.Flows) > maxFlowsPerEvent {
				return nil, fmt.Errorf("%w: event with %d flows", ErrBadRequest, len(ev.Flows))
			}
			buf = append(buf, byte(len(ev.Kind)))
			buf = append(buf, ev.Kind...)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ev.Flows)))
			for _, f := range ev.Flows {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Src))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Dst))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(f.DemandBps))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(f.SizeBytes))
			}
		}
	default:
		kind = binOpJSON
		body, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		buf = append(buf, body...)
	}
	payload := len(buf) - start - FrameHeaderSize
	if payload > MaxFramePayload {
		return nil, fmt.Errorf("%w: frame payload %d exceeds %d", ErrBadRequest, payload, MaxFramePayload)
	}
	putHeader(buf[start:start+FrameHeaderSize], kind, flags, payload)
	return buf, nil
}

// ParseRequest decodes and shape-checks one complete binary v2 request
// frame (header included). It is the single entry point for untrusted
// bytes (the server's connection handler and the fuzz target both go
// through it): broken frames, malformed JSON bodies, unknown ops and
// missing per-op payloads all return an error wrapping ErrBadRequest,
// except a header version byte this build does not speak, which wraps
// ErrUnsupportedVersion; no input may panic. Semantic validation
// against the server's topology (node/link ranges) happens later, in
// the state loop.
func ParseRequest(data []byte) (*Request, error) {
	if len(data) < FrameHeaderSize {
		return nil, fmt.Errorf("%w: truncated frame header (%d bytes)", ErrBadRequest, len(data))
	}
	if data[0] != FrameMagic {
		return nil, fmt.Errorf("%w: bad frame magic 0x%02x", ErrBadRequest, data[0])
	}
	if data[1] != ProtocolVersionBinary {
		return nil, fmt.Errorf("%w: got binary v%d, this server speaks v%d",
			ErrUnsupportedVersion, data[1], ProtocolVersionBinary)
	}
	kind, flags := data[2], data[3]
	n := binary.LittleEndian.Uint32(data[4:8])
	if n > MaxFramePayload {
		return nil, fmt.Errorf("%w: frame payload %d exceeds %d", ErrBadRequest, n, MaxFramePayload)
	}
	if uint64(len(data)-FrameHeaderSize) != uint64(n) {
		return nil, fmt.Errorf("%w: frame payload length %d, header says %d",
			ErrBadRequest, len(data)-FrameHeaderSize, n)
	}
	payload := data[FrameHeaderSize:]

	req := &Request{
		Retry:     flags&reqFlagRetry != 0,
		ShardInfo: flags&reqFlagShard != 0,
	}
	switch kind {
	case binOpPing:
		req.Op = OpPing
	case binOpSubmitBatch:
		req.Op = OpSubmitBatch
		if flags&reqFlagSpan != 0 {
			if len(payload) < spanCtxWireSize {
				return nil, fmt.Errorf("%w: truncated span context", ErrBadRequest)
			}
			req.Span = &obs.SpanContext{
				Origin:       binary.LittleEndian.Uint16(payload),
				SubmitWallNs: int64(binary.LittleEndian.Uint64(payload[2:])),
			}
			payload = payload[spanCtxWireSize:]
		}
		events, err := decodeBatchPayload(payload)
		if err != nil {
			return nil, err
		}
		req.Events = events
	case binOpJSON:
		var inner Request
		if err := json.Unmarshal(payload, &inner); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		inner.Retry = inner.Retry || req.Retry
		req = &inner
	default:
		return nil, fmt.Errorf("%w: unknown binary frame kind %d", ErrBadRequest, kind)
	}
	if err := checkRequestShape(req); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeBatchPayload decodes the dense submit-batch body. The event
// slice and its flow slices are freshly allocated (they outlive the
// read buffer); string kinds are the only copies beyond that.
func decodeBatchPayload(p []byte) ([]EventSpec, error) {
	off := 0
	need := func(n int) error {
		if len(p)-off < n {
			return fmt.Errorf("%w: truncated submit-batch payload at byte %d", ErrBadRequest, off)
		}
		return nil
	}
	if err := need(4); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(p[off:])
	off += 4
	if count == 0 || count > maxBatchEvents {
		return nil, fmt.Errorf("%w: submit-batch with %d events", ErrBadRequest, count)
	}
	events := make([]EventSpec, 0, count)
	for i := uint32(0); i < count; i++ {
		if err := need(1); err != nil {
			return nil, err
		}
		kindLen := int(p[off])
		off++
		if err := need(kindLen + 2); err != nil {
			return nil, err
		}
		kind := string(p[off : off+kindLen])
		off += kindLen
		flowCount := int(binary.LittleEndian.Uint16(p[off:]))
		off += 2
		if err := need(flowCount * 24); err != nil {
			return nil, err
		}
		flows := make([]FlowSpec, flowCount)
		for j := 0; j < flowCount; j++ {
			flows[j] = FlowSpec{
				Src:       int(binary.LittleEndian.Uint32(p[off:])),
				Dst:       int(binary.LittleEndian.Uint32(p[off+4:])),
				DemandBps: int64(binary.LittleEndian.Uint64(p[off+8:])),
				SizeBytes: int64(binary.LittleEndian.Uint64(p[off+16:])),
			}
			off += 24
		}
		events = append(events, EventSpec{Kind: kind, Flows: flows})
	}
	if off != len(p) {
		return nil, fmt.Errorf("%w: %d trailing bytes after submit-batch payload", ErrBadRequest, len(p)-off)
	}
	return events, nil
}

// AppendResponseFrame appends resp encoded as one binary v2 frame to
// buf. Successful submit-batch responses use the dense verdict
// encoding; everything else is a JSON envelope frame. Verdict shard IDs
// are never encoded — this is the pre-shard wire shape; servers
// answering a shard-flagged request use AppendResponseFrameFor.
func AppendResponseFrame(buf []byte, resp *Response) ([]byte, error) {
	return AppendResponseFrameFor(buf, resp, false)
}

// AppendResponseFrameFor is AppendResponseFrame with explicit control
// over the flag-gated shard extension: with wantShard set (the request
// carried reqFlagShard), each verdict with a non-zero Shard gets the
// verdictFlagShard bit and a trailing u16 shard ID. With it clear the
// frame is byte-identical to a pre-shard build's.
func AppendResponseFrameFor(buf []byte, resp *Response, wantShard bool) ([]byte, error) {
	start := len(buf)
	buf = append(buf, make([]byte, FrameHeaderSize)...)
	var kind byte
	if resp.OK && resp.Verdicts != nil {
		kind = respKindVerdicts
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(resp.Verdicts)))
		for _, v := range resp.Verdicts {
			var f byte
			if v.OK {
				f |= verdictFlagOK
			}
			if v.Overloaded {
				f |= verdictFlagOverloaded
			}
			withShard := wantShard && v.Shard > 0
			if withShard {
				f |= verdictFlagShard
			}
			buf = append(buf, f)
			if withShard {
				buf = binary.LittleEndian.AppendUint16(buf, uint16(v.Shard))
			}
			if v.OK {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v.EventID))
			} else {
				msg := v.Error
				if len(msg) > 1<<15 {
					msg = msg[:1<<15]
				}
				buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg)))
				buf = append(buf, msg...)
			}
		}
		if resp.Overload != nil {
			buf = append(buf, 1)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(resp.Overload.QueueDepth))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(resp.Overload.Watermark))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(resp.Overload.RetryAfterMs))
		} else {
			buf = append(buf, 0)
		}
	} else {
		kind = respKindJSON
		body, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		buf = append(buf, body...)
	}
	payload := len(buf) - start - FrameHeaderSize
	if payload > MaxFramePayload {
		return nil, fmt.Errorf("ctl: response frame payload %d exceeds %d", payload, MaxFramePayload)
	}
	putHeader(buf[start:start+FrameHeaderSize], kind, 0, payload)
	return buf, nil
}

// decodeResponseFrame decodes one complete binary response frame.
func decodeResponseFrame(data []byte) (*Response, error) {
	if len(data) < FrameHeaderSize {
		return nil, fmt.Errorf("%w: truncated response header", ErrBadRequest)
	}
	if data[0] != FrameMagic || data[1] != ProtocolVersionBinary {
		return nil, fmt.Errorf("%w: bad response frame preamble", ErrBadRequest)
	}
	kind := data[2]
	n := binary.LittleEndian.Uint32(data[4:8])
	if uint64(len(data)-FrameHeaderSize) != uint64(n) {
		return nil, fmt.Errorf("%w: response payload length mismatch", ErrBadRequest)
	}
	p := data[FrameHeaderSize:]
	switch kind {
	case respKindJSON:
		var resp Response
		if err := json.Unmarshal(p, &resp); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return &resp, nil
	case respKindVerdicts:
		return decodeVerdictsPayload(p)
	default:
		return nil, fmt.Errorf("%w: unknown response frame kind %d", ErrBadRequest, kind)
	}
}

// decodeVerdictsPayload decodes the dense submit-batch response body.
func decodeVerdictsPayload(p []byte) (*Response, error) {
	off := 0
	need := func(n int) error {
		if len(p)-off < n {
			return fmt.Errorf("%w: truncated verdicts payload at byte %d", ErrBadRequest, off)
		}
		return nil
	}
	if err := need(4); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(p[off:])
	off += 4
	if count > maxVerdictsDecode {
		return nil, fmt.Errorf("%w: %d verdicts", ErrBadRequest, count)
	}
	resp := &Response{OK: true, Verdicts: make([]SubmitVerdict, 0, count)}
	for i := uint32(0); i < count; i++ {
		if err := need(1); err != nil {
			return nil, err
		}
		f := p[off]
		off++
		v := SubmitVerdict{OK: f&verdictFlagOK != 0, Overloaded: f&verdictFlagOverloaded != 0}
		if f&verdictFlagShard != 0 {
			if err := need(2); err != nil {
				return nil, err
			}
			v.Shard = int(binary.LittleEndian.Uint16(p[off:]))
			off += 2
		}
		if v.OK {
			if err := need(8); err != nil {
				return nil, err
			}
			v.EventID = int64(binary.LittleEndian.Uint64(p[off:]))
			off += 8
		} else {
			if err := need(2); err != nil {
				return nil, err
			}
			msgLen := int(binary.LittleEndian.Uint16(p[off:]))
			off += 2
			if err := need(msgLen); err != nil {
				return nil, err
			}
			v.Error = string(p[off : off+msgLen])
			off += msgLen
		}
		resp.Verdicts = append(resp.Verdicts, v)
	}
	if err := need(1); err != nil {
		return nil, err
	}
	present := p[off]
	off++
	if present != 0 {
		if err := need(16); err != nil {
			return nil, err
		}
		resp.Overload = &OverloadInfo{
			QueueDepth:   int(binary.LittleEndian.Uint32(p[off:])),
			Watermark:    int(binary.LittleEndian.Uint32(p[off+4:])),
			RetryAfterMs: int64(binary.LittleEndian.Uint64(p[off+8:])),
		}
		off += 16
	}
	if off != len(p) {
		return nil, fmt.Errorf("%w: %d trailing bytes after verdicts payload", ErrBadRequest, len(p)-off)
	}
	return resp, nil
}
