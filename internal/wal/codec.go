package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Envelope layout, the one CRC framing of this package and of the
// replication stream (internal/repl puts a 4-byte preamble in front of
// it):
//
//	u32  payload length (little endian)
//	u32  CRC-32C (Castagnoli) of the payload bytes
//	payload
//
// A WAL frame is an envelope around one record payload. Payload layout
// (common header, then a per-type body):
//
//	u8   record type
//	u64  seq
//	u64  vt      (engine virtual clock, ns)
//	u64  rounds  (engine completed rounds at admission)
//	body
//
// Event bodies are dense binary — they are the hot path, appended once
// per admitted event under the ingest pipeline. Round bodies are varint
// binary (round.go): one per planned round, holding every lane's plan.
// Meta and fault bodies are JSON: they are rare (one meta per segment,
// one fault per operator action) and benefit from being self-describing.
//
// Event body:
//
//	u8   flags (bit 0: retry; bit 1: span context suffix present)
//	u32  batch size (0 unless first record of an accepted request)
//	u64  event ID
//	u8   kind length, then kind bytes
//	u16  flow count, then per flow: u32 src, u32 dst, u64 demand, u64 size
//	[u16 origin, u64 submit wall ns]  — only when flag bit 1 is set

const (
	frameHeaderSize = 8
	recHeaderSize   = 1 + 8 + 8 + 8

	// maxFramePayload (16 MiB) bounds an envelope so a corrupt length
	// prefix cannot drive a giant allocation. Log payloads are small (a
	// meta record, one event's flows or one round's plans); the largest
	// envelopes are the replication stream's checkpoint snapshots.
	maxFramePayload = 1 << 24

	eventFlagRetry = 1 << 0
	// eventFlagSpan gates a 10-byte span-context suffix (u16 origin +
	// u64 submit wall ns) after the flow array. Records without wire
	// span context omit both flag and suffix, so logs written by span-
	// unaware peers and spanless runs stay byte-identical to the old
	// format.
	eventFlagSpan = 1 << 1

	spanSuffixSize = 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendEnvelope appends payload to dst inside one envelope.
func AppendEnvelope(dst, payload []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header, sealed below
	return sealEnvelope(append(dst, payload...), start)
}

// sealEnvelope fills in the header reserved at dst[start:] for the
// payload appended after it.
func sealEnvelope(dst []byte, start int) ([]byte, error) {
	payload := dst[start+frameHeaderSize:]
	if len(payload) > maxFramePayload {
		return dst, fmt.Errorf("wal: frame payload %d exceeds cap %d", len(payload), maxFramePayload)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst, nil
}

// ReadEnvelope reads one envelope from r into buf (grown when too small)
// and returns it whole, header and payload. It returns io.EOF at a clean
// boundary, io.ErrUnexpectedEOF when r ends inside the envelope (a torn
// tail), ErrCorrupt for a length past the cap or a CRC mismatch, and any
// other read error as it came.
func ReadEnvelope(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < frameHeaderSize {
		buf = make([]byte, frameHeaderSize, 4096)
	}
	buf = buf[:frameHeaderSize]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > maxFramePayload {
		return buf, fmt.Errorf("%w: frame length %d exceeds cap %d", ErrCorrupt, n, maxFramePayload)
	}
	total := frameHeaderSize + int(n)
	if cap(buf) < total {
		grown := make([]byte, total)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:total]
	payload := buf[frameHeaderSize:]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(buf[4:]); got != want {
		return buf, fmt.Errorf("%w: crc mismatch (stored %08x, computed %08x)", ErrCorrupt, want, got)
	}
	return buf, nil
}

// AppendFrame encodes rec as one frame and appends it to dst.
func AppendFrame(dst []byte, rec *Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // envelope header, sealed below

	dst = append(dst, byte(rec.Type))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.ID.Seq))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.ID.VT))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Rounds))

	switch rec.Type {
	case TypeEvent:
		ev := rec.Event
		if ev == nil {
			return dst, fmt.Errorf("wal: event record without event payload")
		}
		if len(ev.Kind) > math.MaxUint8 {
			return dst, fmt.Errorf("wal: event kind %q too long", ev.Kind)
		}
		if len(ev.Flows) > math.MaxUint16 {
			return dst, fmt.Errorf("wal: event has %d flows, max %d", len(ev.Flows), math.MaxUint16)
		}
		var flags byte
		if ev.Retry {
			flags |= eventFlagRetry
		}
		if ev.Origin != 0 || ev.SubmitWallNs != 0 {
			flags |= eventFlagSpan
		}
		dst = append(dst, flags)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(ev.BatchSize))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(ev.EventID))
		dst = append(dst, byte(len(ev.Kind)))
		dst = append(dst, ev.Kind...)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ev.Flows)))
		for _, f := range ev.Flows {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Src))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Dst))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(f.DemandBps))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(f.SizeBytes))
		}
		if flags&eventFlagSpan != 0 {
			dst = binary.LittleEndian.AppendUint16(dst, ev.Origin)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(ev.SubmitWallNs))
		}
	case TypeMeta:
		if rec.Meta == nil {
			return dst, fmt.Errorf("wal: meta record without meta payload")
		}
		body, err := json.Marshal(rec.Meta)
		if err != nil {
			return dst, err
		}
		dst = append(dst, body...)
	case TypeFault:
		if rec.Fault == nil {
			return dst, fmt.Errorf("wal: fault record without fault payload")
		}
		body, err := json.Marshal(rec.Fault)
		if err != nil {
			return dst, err
		}
		dst = append(dst, body...)
	case TypeRound:
		if rec.Round == nil {
			return dst, fmt.Errorf("wal: round record without round payload")
		}
		dst = appendRoundBody(dst, rec.Round)
	default:
		return dst, fmt.Errorf("wal: unknown record type %d", rec.Type)
	}
	return sealEnvelope(dst, start)
}

// DecodePayload decodes one frame payload (the bytes after the frame
// header, already CRC-verified) into a Record.
func DecodePayload(payload []byte) (*Record, error) {
	if len(payload) < recHeaderSize {
		return nil, fmt.Errorf("%w: payload %d bytes, want at least %d", ErrCorrupt, len(payload), recHeaderSize)
	}
	rec := &Record{Type: Type(payload[0])}
	rec.ID.Seq = int64(binary.LittleEndian.Uint64(payload[1:]))
	rec.ID.VT = int64(binary.LittleEndian.Uint64(payload[9:]))
	rec.Rounds = int64(binary.LittleEndian.Uint64(payload[17:]))
	body := payload[recHeaderSize:]

	switch rec.Type {
	case TypeEvent:
		ev, err := decodeEventBody(body)
		if err != nil {
			return nil, err
		}
		rec.Event = ev
	case TypeMeta:
		m := &Meta{}
		if err := json.Unmarshal(body, m); err != nil {
			return nil, fmt.Errorf("%w: bad meta body: %v", ErrCorrupt, err)
		}
		rec.Meta = m
	case TypeFault:
		f := &FaultRecord{}
		if err := json.Unmarshal(body, f); err != nil {
			return nil, fmt.Errorf("%w: bad fault body: %v", ErrCorrupt, err)
		}
		rec.Fault = f
	case TypeRound:
		r, err := decodeRoundBody(body)
		if err != nil {
			return nil, err
		}
		rec.Round = r
	default:
		return nil, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, rec.Type)
	}
	return rec, nil
}

func decodeEventBody(body []byte) (*EventRecord, error) {
	bad := func(what string) error {
		return fmt.Errorf("%w: truncated event body at %s", ErrCorrupt, what)
	}
	if len(body) < 1+4+8+1 {
		return nil, bad("header")
	}
	ev := &EventRecord{}
	flags := body[0]
	ev.Retry = flags&eventFlagRetry != 0
	ev.BatchSize = int(binary.LittleEndian.Uint32(body[1:]))
	ev.EventID = int64(binary.LittleEndian.Uint64(body[5:]))
	kindLen := int(body[13])
	body = body[14:]
	if len(body) < kindLen+2 {
		return nil, bad("kind")
	}
	ev.Kind = string(body[:kindLen])
	flowCount := int(binary.LittleEndian.Uint16(body[kindLen:]))
	body = body[kindLen+2:]
	want := flowCount * 24
	if flags&eventFlagSpan != 0 {
		want += spanSuffixSize
	}
	if len(body) != want {
		return nil, fmt.Errorf("%w: event body has %d bytes for %d flows", ErrCorrupt, len(body), flowCount)
	}
	ev.Flows = make([]FlowSpec, flowCount)
	for i := range ev.Flows {
		off := i * 24
		ev.Flows[i] = FlowSpec{
			Src:       int(binary.LittleEndian.Uint32(body[off:])),
			Dst:       int(binary.LittleEndian.Uint32(body[off+4:])),
			DemandBps: int64(binary.LittleEndian.Uint64(body[off+8:])),
			SizeBytes: int64(binary.LittleEndian.Uint64(body[off+16:])),
		}
	}
	if flags&eventFlagSpan != 0 {
		off := flowCount * 24
		ev.Origin = binary.LittleEndian.Uint16(body[off:])
		ev.SubmitWallNs = int64(binary.LittleEndian.Uint64(body[off+2:]))
	}
	return ev, nil
}

// ReadFrame reads one envelope from r (errors as ReadEnvelope) and
// decodes its record; a malformed record is ErrCorrupt. On success the
// returned buffer is exactly the frame read — header and payload, the
// bytes replication re-emits — so its length is the frame's size on
// disk; pass it back in to reuse the allocation.
func ReadFrame(r io.Reader, buf []byte) (*Record, []byte, error) {
	buf, err := ReadEnvelope(r, buf)
	if err != nil {
		return nil, buf, err
	}
	rec, err := DecodePayload(buf[frameHeaderSize:])
	return rec, buf, err
}
