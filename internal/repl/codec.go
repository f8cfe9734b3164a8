// Replication stream framing.
//
// A replication session is a single long-lived TCP connection carrying
// framed messages in both directions (frames leader→follower, acks
// follower→leader). A frame is a 4-byte preamble followed by one WAL
// envelope (wal.AppendEnvelope / wal.ReadEnvelope), so the length cap,
// the CRC and the torn/corrupt taxonomy are the log's own:
//
//	byte 0     StreamMagic (0xB9; distinct from the ctl binary frame
//	           magic 0xB7 and from any JSON document, so the ctl
//	           listener routes the connection off its first byte)
//	byte 1     StreamVersion
//	byte 2     frame kind (Kind*)
//	byte 3     flags (kind-specific)
//	bytes 4-7  envelope: u32 little-endian payload length
//	bytes 8-11 envelope: u32 little-endian CRC-32C of the payload
//	bytes 12-  payload
//
// A KindRecords payload is a concatenation of raw WAL frames exactly as
// they sit in the leader's segment files. The follower decodes them with
// wal.ReadFrame and appends the decoded records through its own writer,
// which encodes each one again. The record encoding is canonical —
// encoding a decoded frame gives back its bytes — so leader and follower
// logs stay frame-for-frame equal (pinned by ctl's format goldens and its
// leader/follower log comparison).
package repl

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"netupdate/internal/wal"
)

const (
	// StreamMagic is the first byte of every replication frame.
	StreamMagic byte = 0xB9
	// StreamVersion is the replication protocol version.
	StreamVersion = 1
	// HeaderSize is the fixed frame header length: the preamble, then
	// the envelope's length and CRC.
	HeaderSize = preambleSize + 8
	// MaxPayload is the envelope's payload cap (16 MiB), limiting what a
	// malformed length field can make the receiver allocate.
	MaxPayload = 1 << 24

	preambleSize = 4
)

// Frame kinds.
const (
	// KindHello opens a session (follower→leader, JSON Hello payload).
	KindHello byte = 1
	// KindWelcome answers a Hello (leader→follower, JSON Welcome).
	KindWelcome byte = 2
	// KindRecords carries one batch of raw WAL frames (leader→follower).
	KindRecords byte = 3
	// KindCheckpoint carries a checkpoint: with FlagBootstrap a full
	// state snapshot to install, without it an announcement that the
	// leader rotated at the carried sequence and the follower should
	// checkpoint its own fold there too (leader→follower, JSON
	// wal.Checkpoint payload).
	KindCheckpoint byte = 4
	// KindHeartbeat is the leader's liveness beacon (16-byte payload:
	// u64 term, u64 lastSeq).
	KindHeartbeat byte = 5
	// KindAck acknowledges durable application through a sequence
	// number (follower→leader, 8-byte payload: u64 seq).
	KindAck byte = 6
)

// FlagBootstrap on a KindCheckpoint frame marks a full bootstrap
// snapshot rather than a rotation announcement.
const FlagBootstrap byte = 1 << 0

// Message is one decoded replication frame. Exactly one payload field
// matching Kind is set.
type Message struct {
	Kind byte

	Hello   *Hello
	Welcome *Welcome
	// Checkpoint is the decoded checkpoint document; Bootstrap mirrors
	// FlagBootstrap.
	Checkpoint *wal.Checkpoint
	Bootstrap  bool
	// Records holds the raw bytes of the batched WAL frames; decode
	// individual records with DecodeRecords.
	Records   []byte
	Heartbeat *Heartbeat
	Ack       *Ack
}

// appendFrame frames payload with kind/flags onto dst: the preamble,
// then the envelope.
func appendFrame(dst []byte, kind, flags byte, payload []byte) ([]byte, error) {
	return wal.AppendEnvelope(append(dst, StreamMagic, StreamVersion, kind, flags), payload)
}

// AppendHello frames a Hello onto dst.
func AppendHello(dst []byte, h *Hello) ([]byte, error) {
	payload, err := json.Marshal(h)
	if err != nil {
		return dst, err
	}
	return appendFrame(dst, KindHello, 0, payload)
}

// AppendWelcome frames a Welcome onto dst.
func AppendWelcome(dst []byte, w *Welcome) ([]byte, error) {
	payload, err := json.Marshal(w)
	if err != nil {
		return dst, err
	}
	return appendFrame(dst, KindWelcome, 0, payload)
}

// AppendRecords frames a batch of raw WAL frames onto dst.
func AppendRecords(dst []byte, frames []byte) ([]byte, error) {
	return appendFrame(dst, KindRecords, 0, frames)
}

// AppendCheckpoint frames a checkpoint document onto dst; bootstrap
// selects snapshot semantics over a rotation announcement.
func AppendCheckpoint(dst []byte, ck *wal.Checkpoint, bootstrap bool) ([]byte, error) {
	payload, err := json.Marshal(ck)
	if err != nil {
		return dst, err
	}
	var flags byte
	if bootstrap {
		flags |= FlagBootstrap
	}
	return appendFrame(dst, KindCheckpoint, flags, payload)
}

// AppendHeartbeat frames a liveness beacon onto dst.
func AppendHeartbeat(dst []byte, term uint64, lastSeq int64) ([]byte, error) {
	var p [16]byte
	binary.LittleEndian.PutUint64(p[0:8], term)
	binary.LittleEndian.PutUint64(p[8:16], uint64(lastSeq))
	return appendFrame(dst, KindHeartbeat, 0, p[:])
}

// AppendAck frames a durability acknowledgement onto dst.
func AppendAck(dst []byte, seq int64) ([]byte, error) {
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], uint64(seq))
	return appendFrame(dst, KindAck, 0, p[:])
}

// ReadMessage reads and decodes exactly one replication frame from r.
// scratch is an optional reuse buffer; the returned slice is the
// (possibly grown) buffer to pass back in. io.EOF marks a clean
// boundary before any preamble byte; io.ErrUnexpectedEOF a torn frame;
// ErrCorrupt a bad preamble, a CRC mismatch or a malformed payload.
// Other read errors (a deadline, a closed connection) come back as is.
func ReadMessage(r io.Reader, scratch []byte) (*Message, []byte, error) {
	var pre [preambleSize]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, scratch, err
	}
	if pre[0] != StreamMagic {
		return nil, scratch, fmt.Errorf("%w: bad magic 0x%02x", ErrCorrupt, pre[0])
	}
	if pre[1] != StreamVersion {
		return nil, scratch, fmt.Errorf("%w: unsupported stream version %d", ErrCorrupt, pre[1])
	}
	scratch, err := wal.ReadEnvelope(r, scratch)
	switch {
	case err == io.EOF:
		// The preamble already began the frame.
		return nil, scratch, io.ErrUnexpectedEOF
	case errors.Is(err, wal.ErrCorrupt):
		return nil, scratch, fmt.Errorf("%w: %v", ErrCorrupt, err)
	case err != nil:
		return nil, scratch, err
	}
	m, err := decodeMessage(pre[2], pre[3], scratch[HeaderSize-preambleSize:])
	return m, scratch, err
}

// decodeMessage decodes one frame's payload by kind. The payload slice
// is only borrowed: JSON kinds unmarshal out of it, binary kinds copy.
func decodeMessage(kind, flags byte, payload []byte) (*Message, error) {
	m := &Message{Kind: kind}
	switch kind {
	case KindHello:
		m.Hello = new(Hello)
		if err := json.Unmarshal(payload, m.Hello); err != nil {
			return nil, fmt.Errorf("%w: hello: %v", ErrCorrupt, err)
		}
	case KindWelcome:
		m.Welcome = new(Welcome)
		if err := json.Unmarshal(payload, m.Welcome); err != nil {
			return nil, fmt.Errorf("%w: welcome: %v", ErrCorrupt, err)
		}
	case KindCheckpoint:
		m.Checkpoint = new(wal.Checkpoint)
		if err := json.Unmarshal(payload, m.Checkpoint); err != nil {
			return nil, fmt.Errorf("%w: checkpoint: %v", ErrCorrupt, err)
		}
		m.Bootstrap = flags&FlagBootstrap != 0
	case KindRecords:
		m.Records = append([]byte(nil), payload...)
	case KindHeartbeat:
		if len(payload) != 16 {
			return nil, fmt.Errorf("%w: heartbeat payload %d bytes, want 16", ErrCorrupt, len(payload))
		}
		m.Heartbeat = &Heartbeat{
			Term:    binary.LittleEndian.Uint64(payload[0:8]),
			LastSeq: int64(binary.LittleEndian.Uint64(payload[8:16])),
		}
	case KindAck:
		if len(payload) != 8 {
			return nil, fmt.Errorf("%w: ack payload %d bytes, want 8", ErrCorrupt, len(payload))
		}
		m.Ack = &Ack{Seq: int64(binary.LittleEndian.Uint64(payload))}
	default:
		return nil, fmt.Errorf("%w: unknown frame kind %d", ErrCorrupt, kind)
	}
	return m, nil
}

// DecodeRecords parses a KindRecords payload into its WAL records,
// enforcing intra-batch sequence contiguity (each record exactly one
// past the previous). The first record's continuity with the
// follower's applied prefix is the applier's check, not the codec's.
func DecodeRecords(frames []byte) ([]*wal.Record, error) {
	var (
		recs    []*wal.Record
		scratch []byte
		r       = bytes.NewReader(frames)
	)
	for {
		rec, s, err := wal.ReadFrame(r, scratch)
		scratch = s
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			if err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("%w: truncated wal frame in records batch", ErrCorrupt)
			}
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if rec.Type == wal.TypeMeta {
			return nil, fmt.Errorf("%w: meta record in replication stream", ErrCorrupt)
		}
		if n := len(recs); n > 0 && rec.ID.Seq != recs[n-1].ID.Seq+1 {
			return nil, fmt.Errorf("%w: seq %d after %d in one batch", ErrSeqGap, rec.ID.Seq, recs[n-1].ID.Seq)
		}
		recs = append(recs, rec)
	}
}
