package repl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"netupdate/internal/wal"
)

func fuzzFrames(f *testing.F, seqs ...int64) []byte {
	f.Helper()
	var buf []byte
	for _, seq := range seqs {
		var err error
		buf, err = wal.AppendFrame(buf, &wal.Record{
			Type: wal.TypeEvent, ID: wal.ID{VT: 1000 * seq, Seq: seq}, Rounds: seq,
			Event: &wal.EventRecord{EventID: seq, Kind: "submitted", BatchSize: 1,
				Flows: []wal.FlowSpec{{Src: 1, Dst: 9, DemandBps: 1e9, SizeBytes: 1 << 20}}},
		})
		if err != nil {
			f.Fatal(err)
		}
	}
	return buf
}

// FuzzReplDecode feeds arbitrary byte streams through the replication
// frame reader and the records-batch decoder, asserting the crash-free
// error taxonomy: every outcome is a decoded message, io.EOF at a clean
// boundary, io.ErrUnexpectedEOF on a torn frame, or a typed repl error —
// never a panic, never an unbounded allocation.
func FuzzReplDecode(f *testing.F) {
	meta := wal.Meta{Format: wal.FormatVersion, Scheduler: "plmtf", Seed: 7, K: 4, Util: 0.3, Watermark: 4096}

	var seeds [][]byte

	// A full healthy session: hello, welcome, bootstrap checkpoint,
	// records, rotation checkpoint, heartbeat, ack.
	var session []byte
	session, _ = AppendHello(session, &Hello{Term: 2, AfterSeq: 0, Bootstrap: true, Meta: meta})
	session, _ = AppendWelcome(session, &Welcome{Term: 2, LastSeq: 8, CheckpointSeq: 4, Snapshot: true})
	session, _ = AppendCheckpoint(session, &wal.Checkpoint{Format: wal.CheckpointFormat, ID: wal.ID{VT: 4000, Seq: 4}, Rounds: 4}, true)
	session, _ = AppendRecords(session, fuzzFrames(f, 5, 6, 7))
	session, _ = AppendCheckpoint(session, &wal.Checkpoint{Format: wal.CheckpointFormat, ID: wal.ID{VT: 7000, Seq: 7}, Rounds: 7}, false)
	session, _ = AppendHeartbeat(session, 2, 8)
	session, _ = AppendAck(session, 7)
	seeds = append(seeds, session)

	// Stale-term handshakes: hello that deposes, welcome that is stale.
	stale, _ := AppendHello(nil, &Hello{Term: 99, AfterSeq: 3, Meta: meta})
	staleW, _ := AppendWelcome(stale, &Welcome{Term: 1, LastSeq: 3})
	seeds = append(seeds, staleW)

	// Rejection welcome.
	rej, _ := AppendWelcome(nil, &Welcome{Code: CodeBehind, Detail: "wipe and resync", Term: 3})
	seeds = append(seeds, rej)

	// Records batch with an intra-batch seq gap.
	gapBatch, _ := AppendRecords(nil, append(fuzzFrames(f, 5), fuzzFrames(f, 9)...))
	seeds = append(seeds, gapBatch)

	// Truncations of a records frame at every interesting boundary.
	whole, _ := AppendRecords(nil, fuzzFrames(f, 5, 6))
	for _, cut := range []int{1, 6, HeaderSize - 1, HeaderSize, HeaderSize + 3, len(whole) - 1} {
		if cut < len(whole) {
			seeds = append(seeds, whole[:cut])
		}
	}

	// Checkpoint/records interleaving with a bootstrap flag mid-stream
	// (protocol violation the session layer must catch, codec accepts).
	var inter []byte
	inter, _ = AppendRecords(inter, fuzzFrames(f, 5))
	inter, _ = AppendCheckpoint(inter, &wal.Checkpoint{Format: wal.CheckpointFormat, ID: wal.ID{VT: 5000, Seq: 5}, Rounds: 5}, true)
	inter, _ = AppendRecords(inter, fuzzFrames(f, 6))
	seeds = append(seeds, inter)

	// Header-level damage.
	hb, _ := AppendHeartbeat(nil, 1, 2)
	badMagic := append([]byte(nil), hb...)
	badMagic[0] = 0xB7 // the ctl binary magic, the likeliest cross-protocol confusion
	seeds = append(seeds, badMagic)
	badLen := append([]byte(nil), hb...)
	binary.LittleEndian.PutUint32(badLen[4:8], 1<<31)
	seeds = append(seeds, badLen)
	seeds = append(seeds, []byte{})
	seeds = append(seeds, []byte{StreamMagic})

	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var scratch []byte
		for {
			m, s, err := ReadMessage(r, scratch)
			scratch = s
			if err != nil {
				if err == io.EOF || err == io.ErrUnexpectedEOF ||
					errors.Is(err, ErrCorrupt) || errors.Is(err, ErrSeqGap) {
					break
				}
				t.Fatalf("unexpected error class: %v", err)
			}
			if m.Kind == KindRecords {
				if _, err := DecodeRecords(m.Records); err != nil &&
					!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrSeqGap) {
					t.Fatalf("DecodeRecords error class: %v", err)
				}
			}
		}
	})
}
