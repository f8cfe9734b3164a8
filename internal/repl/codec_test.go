package repl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"netupdate/internal/wal"
)

func testEventRecord(seq int64) *wal.Record {
	return &wal.Record{
		Type: wal.TypeEvent, ID: wal.ID{VT: 1000 * seq, Seq: seq}, Rounds: seq,
		Event: &wal.EventRecord{EventID: seq, Kind: "submitted", BatchSize: 1,
			Flows: []wal.FlowSpec{{Src: 1, Dst: 9, DemandBps: 1e9, SizeBytes: 1 << 20}}},
	}
}

func walFrames(t *testing.T, seqs ...int64) []byte {
	t.Helper()
	var buf []byte
	for _, seq := range seqs {
		var err error
		buf, err = wal.AppendFrame(buf, testEventRecord(seq))
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func readOne(t *testing.T, frame []byte) *Message {
	t.Helper()
	m, _, err := ReadMessage(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	return m
}

// TestCodecRoundTrip drives every frame kind through Append*/ReadMessage.
func TestCodecRoundTrip(t *testing.T) {
	hello := &Hello{Term: 3, AfterSeq: 17, Bootstrap: true, Meta: testMeta()}
	frame, err := AppendHello(nil, hello)
	if err != nil {
		t.Fatal(err)
	}
	m := readOne(t, frame)
	if m.Kind != KindHello || m.Hello == nil || *m.Hello != *hello {
		t.Fatalf("hello round trip: %+v", m)
	}

	welcome := &Welcome{Code: CodeBehind, Detail: "d", Term: 4, LastSeq: 99, CheckpointSeq: 50, Snapshot: true}
	if frame, err = AppendWelcome(nil, welcome); err != nil {
		t.Fatal(err)
	}
	m = readOne(t, frame)
	if m.Kind != KindWelcome || m.Welcome == nil || *m.Welcome != *welcome {
		t.Fatalf("welcome round trip: %+v", m)
	}

	ck := &wal.Checkpoint{Format: wal.CheckpointFormat, ID: wal.ID{VT: 7000, Seq: 7}, Rounds: 9, State: []byte("state")}
	for _, bootstrap := range []bool{false, true} {
		if frame, err = AppendCheckpoint(nil, ck, bootstrap); err != nil {
			t.Fatal(err)
		}
		m = readOne(t, frame)
		if m.Kind != KindCheckpoint || m.Checkpoint == nil || m.Bootstrap != bootstrap ||
			m.Checkpoint.Format != ck.Format || m.Checkpoint.ID != ck.ID || m.Checkpoint.Rounds != ck.Rounds ||
			!bytes.Equal(m.Checkpoint.State, ck.State) {
			t.Fatalf("checkpoint round trip (bootstrap=%v): %+v", bootstrap, m)
		}
	}

	raw := walFrames(t, 5, 6, 7)
	if frame, err = AppendRecords(nil, raw); err != nil {
		t.Fatal(err)
	}
	m = readOne(t, frame)
	if m.Kind != KindRecords || !bytes.Equal(m.Records, raw) {
		t.Fatalf("records round trip: %+v", m)
	}
	recs, err := DecodeRecords(m.Records)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].ID.Seq != 5 || recs[2].ID.Seq != 7 {
		t.Fatalf("decoded records: %+v", recs)
	}

	if frame, err = AppendHeartbeat(nil, 11, 222); err != nil {
		t.Fatal(err)
	}
	m = readOne(t, frame)
	if m.Kind != KindHeartbeat || m.Heartbeat == nil || m.Heartbeat.Term != 11 || m.Heartbeat.LastSeq != 222 {
		t.Fatalf("heartbeat round trip: %+v", m)
	}

	if frame, err = AppendAck(nil, 333); err != nil {
		t.Fatal(err)
	}
	m = readOne(t, frame)
	if m.Kind != KindAck || m.Ack == nil || m.Ack.Seq != 333 {
		t.Fatalf("ack round trip: %+v", m)
	}
}

// TestCodecStreamed checks several frames back-to-back through one
// reader with scratch reuse, the shape the session loops actually use.
func TestCodecStreamed(t *testing.T) {
	var stream []byte
	var err error
	if stream, err = AppendHeartbeat(stream, 1, 10); err != nil {
		t.Fatal(err)
	}
	if stream, err = AppendRecords(stream, walFrames(t, 11)); err != nil {
		t.Fatal(err)
	}
	if stream, err = AppendAck(stream, 11); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(stream)
	var scratch []byte
	kinds := []byte{}
	for {
		var m *Message
		m, scratch, err = ReadMessage(r, scratch)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, m.Kind)
	}
	if !bytes.Equal(kinds, []byte{KindHeartbeat, KindRecords, KindAck}) {
		t.Fatalf("kinds = %v", kinds)
	}
}

// TestCheckpointStateOwnsItsBytes: a checkpoint read through a scratch
// buffer keeps its state when the next frame reuses that buffer, so a
// follower may install a bootstrap snapshot after reading on.
func TestCheckpointStateOwnsItsBytes(t *testing.T) {
	first := &wal.Checkpoint{Format: wal.CheckpointFormat, ID: wal.ID{VT: 4000, Seq: 4}, Rounds: 4,
		State: bytes.Repeat([]byte("first state "), 50)}
	second := &wal.Checkpoint{Format: wal.CheckpointFormat, ID: wal.ID{VT: 7000, Seq: 7}, Rounds: 7,
		State: bytes.Repeat([]byte("SECOND STATE"), 50)}
	stream, err := AppendCheckpoint(nil, first, true)
	if err != nil {
		t.Fatal(err)
	}
	if stream, err = AppendCheckpoint(stream, second, false); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(stream)
	m1, scratch, err := ReadMessage(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := ReadMessage(r, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Checkpoint.State, first.State) {
		t.Errorf("first state changed by the second read: %q", m1.Checkpoint.State)
	}
	if !bytes.Equal(m2.Checkpoint.State, second.State) {
		t.Errorf("second state = %q", m2.Checkpoint.State)
	}
}

// TestReadMessageRejects pins the error taxonomy: torn reads are
// io.ErrUnexpectedEOF (transient connection damage), everything else is
// ErrCorrupt (fatal protocol damage).
func TestReadMessageRejects(t *testing.T) {
	good, err := AppendHeartbeat(nil, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mut(b)
		return b
	}
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"bad magic", mutate(func(b []byte) { b[0] = 0x00 }), ErrCorrupt},
		{"bad version", mutate(func(b []byte) { b[1] = 99 }), ErrCorrupt},
		{"unknown kind", mutate(func(b []byte) { b[2] = 200 }), ErrCorrupt},
		{"crc mismatch", mutate(func(b []byte) { b[len(b)-1] ^= 0xFF }), ErrCorrupt},
		{"oversized length", mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[4:8], MaxPayload+1)
		}), ErrCorrupt},
		{"torn header", good[:6], io.ErrUnexpectedEOF},
		{"torn payload", good[:HeaderSize+3], io.ErrUnexpectedEOF},
		{"short heartbeat", func() []byte {
			f, err := appendFrame(nil, KindHeartbeat, 0, make([]byte, 15))
			if err != nil {
				t.Fatal(err)
			}
			return f
		}(), ErrCorrupt},
		{"short ack", func() []byte {
			f, err := appendFrame(nil, KindAck, 0, make([]byte, 7))
			if err != nil {
				t.Fatal(err)
			}
			return f
		}(), ErrCorrupt},
		{"malformed hello json", func() []byte {
			f, err := appendFrame(nil, KindHello, 0, []byte("{"))
			if err != nil {
				t.Fatal(err)
			}
			return f
		}(), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadMessage(bytes.NewReader(tc.frame), nil)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}

	// A clean EOF before the first byte is the one non-error ending.
	if _, _, err := ReadMessage(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

// TestDecodeRecordsRejects pins the batch-level invariants that keep a
// follower from folding garbage: no meta records mid-stream, no
// intra-batch sequence gaps, no torn WAL frames.
func TestDecodeRecordsRejects(t *testing.T) {
	if recs, err := DecodeRecords(nil); err != nil || len(recs) != 0 {
		t.Fatalf("empty batch: recs=%v err=%v", recs, err)
	}

	gap := append(walFrames(t, 4), walFrames(t, 6)...)
	if _, err := DecodeRecords(gap); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("seq gap: got %v, want ErrSeqGap", err)
	}

	whole := walFrames(t, 4)
	if _, err := DecodeRecords(whole[:len(whole)-2]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn frame: got %v, want ErrCorrupt", err)
	}

	metaFrame, err := wal.AppendFrame(nil, &wal.Record{Type: wal.TypeMeta, ID: wal.ID{Seq: 0}, Meta: &wal.Meta{Format: wal.FormatVersion, Scheduler: "plmtf", Seed: 7, K: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecords(metaFrame); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("meta record: got %v, want ErrCorrupt", err)
	}

	corrupted := walFrames(t, 4)
	corrupted[len(corrupted)-1] ^= 0xFF
	if _, err := DecodeRecords(corrupted); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad wal crc: got %v, want ErrCorrupt", err)
	}
}
