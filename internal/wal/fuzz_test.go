package wal

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzWALDecode throws arbitrary byte streams at the frame decoder. The
// decoder must never panic, never allocate unboundedly, and classify
// every outcome as a clean EOF, a torn tail, or typed corruption. Valid
// frames must survive a re-encode round trip, and a round record's
// bytes too.
func FuzzWALDecode(f *testing.F) {
	// Seed corpus: valid frames of each record type, a multi-record
	// stream, plus truncated and bit-flipped variants.
	var stream []byte
	meta, err := AppendFrame(nil, &Record{Type: TypeMeta, ID: ID{Seq: 0}, Meta: &Meta{Format: FormatVersion, Scheduler: "p-lmtf", Seed: 42, K: 4}})
	if err != nil {
		f.Fatal(err)
	}
	ev, err := AppendFrame(nil, &Record{
		Type: TypeEvent, ID: ID{VT: 5000, Seq: 1}, Rounds: 2,
		Event: &EventRecord{EventID: 1, Kind: "submitted", BatchSize: 2, Flows: []FlowSpec{{Src: 1, Dst: 9, DemandBps: 1e9, SizeBytes: 1 << 20}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	flt, err := AppendFrame(nil, &Record{
		Type: TypeFault, ID: ID{VT: 9000, Seq: 2}, Rounds: 4,
		Fault: &FaultRecord{Action: "link-down", Link: 3, RepairEventID: 1<<40 + 1},
	})
	if err != nil {
		f.Fatal(err)
	}
	rnd, err := AppendFrame(nil, testRound())
	if err != nil {
		f.Fatal(err)
	}
	stream = append(stream, meta...)
	stream = append(stream, ev...)
	stream = append(stream, flt...)
	stream = append(stream, rnd...)

	f.Add(meta)
	f.Add(ev)
	f.Add(flt)
	f.Add(stream)
	f.Add(stream[:len(stream)-3]) // torn tail
	f.Add(ev[:5])                 // torn header
	flipped := append([]byte(nil), ev...)
	flipped[10] ^= 0x01 // bit flip in payload
	f.Add(flipped)
	flipped2 := append([]byte(nil), flt...)
	flipped2[4] ^= 0x80 // bit flip in stored CRC
	f.Add(flipped2)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // huge length prefix
	f.Add(rnd)
	// Round payloads cut short under a valid CRC: the body decoder, not
	// the envelope, must refuse them.
	payload := rnd[frameHeaderSize:]
	for _, n := range []int{recHeaderSize + 1, (recHeaderSize + len(payload)) / 2, len(payload) - 1} {
		cut, err := AppendEnvelope(nil, payload[:n])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(cut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var scratch []byte
		for {
			rec, s, err := ReadFrame(r, scratch)
			scratch = s
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("undecodable frame with untyped error: %v", err)
				}
				return
			}
			// A decoded record must re-encode and decode to itself.
			buf, err := AppendFrame(nil, rec)
			if err != nil {
				t.Fatalf("re-encode of decoded record failed: %v (rec=%+v)", err, rec)
			}
			rec2, _, err := ReadFrame(bytes.NewReader(buf), nil)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if rec2.Type != rec.Type || rec2.ID != rec.ID || rec2.Rounds != rec.Rounds {
				t.Fatalf("round trip changed header: %+v vs %+v", rec, rec2)
			}
			// A round body is canonical: it encodes again to its bytes.
			if rec.Type == TypeRound && !bytes.Equal(buf, s) {
				t.Fatalf("round record re-encodes to other bytes")
			}
		}
	})
}

// FuzzCheckpointDecode throws arbitrary bytes at the checkpoint
// container decoder. It must never panic and must classify every
// failure as ErrCorrupt. A binary container it accepts re-encodes to
// exactly its bytes; a JSON checkpoint it accepts re-encodes to a
// container that decodes to the same checkpoint.
func FuzzCheckpointDecode(f *testing.F) {
	bin, err := AppendCheckpoint(nil, &Checkpoint{Format: CheckpointFormat, ID: ID{VT: 64000, Seq: 64}, Rounds: 12,
		State: []byte("opaque state")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bin)
	f.Add([]byte(`{"format":1,"id":{"vt":64000,"seq":64},"rounds":12,"state":{"next_id":3,"done":[]}}`))
	f.Add(bin[:len(bin)-3]) // truncated
	flipped := append([]byte(nil), bin...)
	flipped[5] ^= 0x01 // bit flip in the stored CRC
	f.Add(flipped)
	// A format varint padded to two bytes, under a valid CRC: decoding it
	// as 2 would re-encode to other bytes.
	overlong, err := AppendEnvelope([]byte{checkpointMagic}, []byte{0x82, 0x00, 0x40, 0x80, 0xf4, 0x03, 0x0c})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(overlong)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("undecodable checkpoint with untyped error: %v", err)
			}
			return
		}
		again, err := AppendCheckpoint(nil, ck)
		if err != nil {
			t.Fatalf("re-encode of a decoded checkpoint failed: %v (%+v)", err, ck)
		}
		if data[0] != '{' {
			if !bytes.Equal(again, data) {
				t.Fatalf("decode + encode is not the identity:\n got  %x\n want %x", again, data)
			}
			return
		}
		ck2, err := DecodeCheckpoint(again)
		if err != nil || ck2.Format != ck.Format || ck2.ID != ck.ID || ck2.Rounds != ck.Rounds || !bytes.Equal(ck2.State, ck.State) {
			t.Fatalf("JSON checkpoint %+v re-encoded reads as %+v, %v", ck, ck2, err)
		}
	})
}
