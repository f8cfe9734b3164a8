package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Checkpoint container layout. One container is the whole of a
// checkpoint.json file (and of each WithKeepSegments archive) and the
// whole payload of a replication KindCheckpoint frame:
//
//	u8   checkpointMagic (never '{', so no JSON reader takes a container)
//	envelope (AppendEnvelope: u32 length, u32 CRC-32C, payload)
//
// Envelope payload:
//
//	uvarint  format (CheckpointFormat, or FormatVersion for a JSON state)
//	uvarint  seq
//	uvarint  vt
//	uvarint  rounds
//	state    the rest of the payload, opaque to this package
//
// The envelope gives the container the log's length cap and checksum.
// Every varint is minimal, so decoding a container and encoding what it
// decoded gives back its bytes. A file that starts with '{' is a
// checkpoint written before the container: one JSON document
// {"format":1,"id":{"vt":…,"seq":…},"rounds":…,"state":{…}}, read with
// Format == FormatVersion and its state document as State.

const (
	// CheckpointFormat is the format of a checkpoint whose state is a
	// binary document (ctl encodes it with encoding/gob) — every
	// checkpoint this build writes. A checkpoint with Format ==
	// FormatVersion carries a JSON state document instead: the format of
	// every checkpoint written before the binary container, kept by the
	// container when a recovered leader ships one to a follower.
	CheckpointFormat = 2

	checkpointMagic byte = 0xBC
)

// Checkpoint is one checkpoint: the logical-clock ID and round count of
// the fold it captures, plus an opaque state document owned by the ctl
// layer, whose encoding Format names. A checkpoint covering ID.Seq = s
// replaces the fold of records 1..s; recovery replays only seq > s.
type Checkpoint struct {
	Format int
	ID     ID
	Rounds int64
	State  []byte
}

// AppendCheckpoint appends ck's container to dst. A checkpoint of an
// unknown format is ErrCorrupt, as it is on the way in.
func AppendCheckpoint(dst []byte, ck *Checkpoint) ([]byte, error) {
	if err := checkFormat(uint64(ck.Format)); err != nil {
		return dst, err
	}
	dst = append(dst, checkpointMagic)
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // envelope header, sealed below
	dst = binary.AppendUvarint(dst, uint64(ck.Format))
	dst = binary.AppendUvarint(dst, uint64(ck.ID.Seq))
	dst = binary.AppendUvarint(dst, uint64(ck.ID.VT))
	dst = binary.AppendUvarint(dst, uint64(ck.Rounds))
	return sealEnvelope(append(dst, ck.State...), start)
}

// DecodeCheckpoint decodes a checkpoint container, or a JSON checkpoint
// written before the container. Any malformed input is ErrCorrupt. The
// returned State is a copy: it never aliases data.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) > 0 && data[0] == '{' {
		return decodeJSONCheckpoint(data)
	}
	if len(data) == 0 || data[0] != checkpointMagic {
		return nil, fmt.Errorf("%w: bad checkpoint: not a checkpoint container", ErrCorrupt)
	}
	r := bytes.NewReader(data[1:])
	env, err := ReadEnvelope(r, nil)
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return nil, fmt.Errorf("%w: bad checkpoint: truncated container", ErrCorrupt)
	case err != nil:
		return nil, fmt.Errorf("bad checkpoint: %w", err)
	case r.Len() > 0:
		return nil, fmt.Errorf("%w: bad checkpoint: %d bytes after the container", ErrCorrupt, r.Len())
	}
	var header [4]uint64 // format, seq, vt, rounds
	p, ok := env[frameHeaderSize:], true
	for i := range header {
		if header[i], p, ok = uvarint(p); !ok {
			break
		}
	}
	if !ok {
		return nil, fmt.Errorf("%w: bad checkpoint: malformed header", ErrCorrupt)
	}
	if err := checkFormat(header[0]); err != nil {
		return nil, err
	}
	ck := &Checkpoint{Format: int(header[0]), ID: ID{Seq: int64(header[1]), VT: int64(header[2])}, Rounds: int64(header[3])}
	if len(p) > 0 {
		ck.State = p // env is ReadEnvelope's own allocation, not data
	}
	return ck, nil
}

func checkFormat(format uint64) error {
	if format != CheckpointFormat && format != FormatVersion {
		return fmt.Errorf("%w: bad checkpoint: format %d, want %d or %d", ErrCorrupt, format, CheckpointFormat, FormatVersion)
	}
	return nil
}

// decodeJSONCheckpoint reads a checkpoint written before the container.
func decodeJSONCheckpoint(data []byte) (*Checkpoint, error) {
	var doc struct {
		Format int             `json:"format"`
		ID     ID              `json:"id"`
		Rounds int64           `json:"rounds"`
		State  json.RawMessage `json:"state"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%w: bad checkpoint: %v", ErrCorrupt, err)
	}
	if doc.Format != FormatVersion {
		return nil, fmt.Errorf("%w: bad checkpoint: JSON format %d, want %d", ErrCorrupt, doc.Format, FormatVersion)
	}
	return &Checkpoint{Format: doc.Format, ID: doc.ID, Rounds: doc.Rounds, State: doc.State}, nil
}

// uvarint reads one minimal uvarint off the front of p.
func uvarint(p []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(p)
	if n <= 0 || (n > 1 && p[n-1] == 0) {
		return 0, p, false
	}
	return v, p[n:], true
}
