package ctl

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"netupdate/internal/obs"
	"netupdate/internal/repl"
	"netupdate/internal/wal"
)

// The byte formats of the durable log and of both wire protocols, pinned
// as hex literals: one frame of every kind a writer produces. Each case
// encodes a fixed value and compares the bytes, then decodes the golden
// bytes and re-encodes what it decoded, which must give the same bytes
// again — the property a follower that re-encodes replicated records
// relies on. A change to any of these literals is a format change: old
// logs, old followers and old clients would read the new bytes wrongly.

type formatGolden struct {
	name   string
	encode func() ([]byte, error)
	// reencode decodes golden bytes and encodes the result again.
	reencode func([]byte) ([]byte, error)
	hex      string
}

func checkFormatGoldens(t *testing.T, cases []formatGolden) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := hex.DecodeString(tc.hex)
			if err != nil {
				t.Fatalf("bad golden literal: %v", err)
			}
			got, err := tc.encode()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoding changed:\n got  %x\n want %x", got, want)
			}
			again, err := tc.reencode(want)
			if err != nil {
				t.Fatalf("decode golden: %v", err)
			}
			if !bytes.Equal(again, want) {
				t.Fatalf("decode + encode is not the identity:\n got  %x\n want %x", again, want)
			}
		})
	}
}

var goldenMeta = wal.Meta{Format: wal.FormatVersion, Scheduler: "p-lmtf", Seed: 7, K: 4, Util: 0.5,
	Watermark: 4096, Tables: 0, Shard: 2, Shards: 4}

func goldenWALRecords() []*wal.Record {
	return []*wal.Record{
		{Type: wal.TypeEvent, ID: wal.ID{VT: 1500, Seq: 7}, Rounds: 3, Event: &wal.EventRecord{
			EventID: 42, Kind: "submitted",
			Flows: []wal.FlowSpec{{Src: 1, Dst: 9, DemandBps: 1e9, SizeBytes: 1 << 20}}}},
		{Type: wal.TypeEvent, ID: wal.ID{VT: 2500, Seq: 8}, Rounds: 4, Event: &wal.EventRecord{
			EventID: 43, Kind: "vm-migration", Retry: true, BatchSize: 4,
			Flows: []wal.FlowSpec{{Src: 2, Dst: 3, DemandBps: 5e8}, {Src: 4, Dst: 15, DemandBps: 1, SizeBytes: 9}}}},
		{Type: wal.TypeEvent, ID: wal.ID{VT: 2500, Seq: 9}, Rounds: 4, Event: &wal.EventRecord{
			EventID: 44, Kind: "spanned", Origin: 3, SubmitWallNs: 1722400000123456789,
			Flows: []wal.FlowSpec{{Src: 0, Dst: 1, DemandBps: 7}}}},
		{Type: wal.TypeMeta, ID: wal.ID{VT: 900, Seq: 100}, Rounds: 9, Meta: &goldenMeta},
		{Type: wal.TypeFault, ID: wal.ID{VT: 3000, Seq: 10}, Rounds: 5, Fault: &wal.FaultRecord{
			Action: "link-down", Link: 40, RepairEventID: 1 << 40}},
	}
}

func walGolden(name string, rec *wal.Record, hexStr string) formatGolden {
	return formatGolden{
		name:   name,
		encode: func() ([]byte, error) { return wal.AppendFrame(nil, rec) },
		reencode: func(b []byte) ([]byte, error) {
			got, _, err := wal.ReadFrame(bytes.NewReader(b), nil)
			if err != nil {
				return nil, err
			}
			return wal.AppendFrame(nil, got)
		},
		hex: hexStr,
	}
}

// goldenCheckpoint is a checkpoint as this build writes one; its state
// is opaque to the container.
var goldenCheckpoint = wal.Checkpoint{Format: wal.CheckpointFormat, ID: wal.ID{VT: 64000, Seq: 64}, Rounds: 12,
	State: []byte("opaque state")}

func TestFormatGoldenWAL(t *testing.T) {
	recs := goldenWALRecords()
	checkFormatGoldens(t, []formatGolden{
		{
			name:   "checkpoint",
			encode: func() ([]byte, error) { return wal.AppendCheckpoint(nil, &goldenCheckpoint) },
			reencode: func(b []byte) ([]byte, error) {
				ck, err := wal.DecodeCheckpoint(b)
				if err != nil {
					return nil, err
				}
				return wal.AppendCheckpoint(nil, ck)
			},
			hex: "bc12000000fceec0b1024080f4030c6f7061717565207374617465",
		},
		walGolden("event", recs[0], "4a0000002fd6179b020700000000000000dc05000000000000030000000000000000000000002a00000000000000097375626d69747465640100010000000900000000ca9a3b000000000000100000000000"),
		walGolden("event-retry-batch", recs[1], "650000002e8a4a1c020800000000000000c409000000000000040000000000000001040000002b000000000000000c766d2d6d6967726174696f6e020002000000030000000065cd1d000000000000000000000000040000000f00000001000000000000000900000000000000"),
		walGolden("event-span", recs[2], "52000000536b001b020900000000000000c409000000000000040000000000000002000000002c00000000000000077370616e6e65640100000000000100000007000000000000000000000000000000030015cd7da8ac31e717"),
		walGolden("meta", recs[3], "85000000ecbeb555016400000000000000840300000000000009000000000000007b22666f726d6174223a312c227363686564756c6572223a22702d6c6d7466222c2273656564223a372c226b223a342c227574696c223a302e352c2277617465726d61726b223a343039362c227461626c6573223a302c227368617264223a322c22736861726473223a347d"),
		walGolden("fault", recs[4], "590000006b966091030a00000000000000b80b00000000000005000000000000007b22616374696f6e223a226c696e6b2d646f776e222c226c696e6b223a34302c227265706169725f6576656e745f6964223a313039393531313632373737367d"),
	})
}

// reencodeMessage decodes one replication frame and encodes the decoded
// message again with the matching Append function.
func reencodeMessage(b []byte) ([]byte, error) {
	m, _, err := repl.ReadMessage(bytes.NewReader(b), nil)
	if err != nil {
		return nil, err
	}
	switch m.Kind {
	case repl.KindHello:
		return repl.AppendHello(nil, m.Hello)
	case repl.KindWelcome:
		return repl.AppendWelcome(nil, m.Welcome)
	case repl.KindRecords:
		return repl.AppendRecords(nil, m.Records)
	case repl.KindCheckpoint:
		return repl.AppendCheckpoint(nil, m.Checkpoint, m.Bootstrap)
	case repl.KindHeartbeat:
		return repl.AppendHeartbeat(nil, m.Heartbeat.Term, m.Heartbeat.LastSeq)
	default:
		return repl.AppendAck(nil, m.Ack.Seq)
	}
}

func replGolden(name string, encode func() ([]byte, error), hexStr string) formatGolden {
	return formatGolden{name: name, encode: encode, reencode: reencodeMessage, hex: hexStr}
}

func TestFormatGoldenRepl(t *testing.T) {
	recs := goldenWALRecords()
	announce := goldenCheckpoint
	announce.State = nil
	checkFormatGoldens(t, []formatGolden{
		replGolden("hello", func() ([]byte, error) {
			return repl.AppendHello(nil, &repl.Hello{Term: 2, AfterSeq: 17, Bootstrap: true, Meta: goldenMeta})
		}, "b90101009e00000095298f8e7b227465726d223a322c2261667465725f736571223a31372c22626f6f747374726170223a747275652c226d657461223a7b22666f726d6174223a312c227363686564756c6572223a22702d6c6d7466222c2273656564223a372c226b223a342c227574696c223a302e352c2277617465726d61726b223a343039362c227461626c6573223a302c227368617264223a322c22736861726473223a347d7d"),
		replGolden("welcome", func() ([]byte, error) {
			return repl.AppendWelcome(nil, &repl.Welcome{Term: 3, LastSeq: 99, CheckpointSeq: 64, Snapshot: true})
		}, "b90102003c000000feb13a687b227465726d223a332c226c6173745f736571223a39392c22636865636b706f696e745f736571223a36342c22736e617073686f74223a747275657d"),
		replGolden("records", func() ([]byte, error) {
			frames, err := wal.AppendFrame(nil, recs[0])
			if err != nil {
				return nil, err
			}
			if frames, err = wal.AppendFrame(frames, recs[1]); err != nil {
				return nil, err
			}
			return repl.AppendRecords(nil, frames)
		}, "b9010300bf000000bf0754774a0000002fd6179b020700000000000000dc05000000000000030000000000000000000000002a00000000000000097375626d69747465640100010000000900000000ca9a3b000000000000100000000000650000002e8a4a1c020800000000000000c409000000000000040000000000000001040000002b000000000000000c766d2d6d6967726174696f6e020002000000030000000065cd1d000000000000000000000000040000000f00000001000000000000000900000000000000"),
		replGolden("checkpoint-bootstrap", func() ([]byte, error) {
			return repl.AppendCheckpoint(nil, &goldenCheckpoint, true)
		}, "b90104011b000000b73241d2bc12000000fceec0b1024080f4030c6f7061717565207374617465"),
		replGolden("checkpoint-announcement", func() ([]byte, error) {
			return repl.AppendCheckpoint(nil, &announce, false)
		}, "b90104000f000000b7215932bc060000008fcd89d3024080f4030c"),
		replGolden("heartbeat", func() ([]byte, error) { return repl.AppendHeartbeat(nil, 3, 99) }, "b901050010000000dbd3cc9d03000000000000006300000000000000"),
		replGolden("ack", func() ([]byte, error) { return repl.AppendAck(nil, 98) }, "b9010600080000006fe650096200000000000000"),
	})
}

func requestGolden(name string, req Request, hexStr string) formatGolden {
	return formatGolden{
		name:   name,
		encode: func() ([]byte, error) { return AppendRequestFrame(nil, &req) },
		reencode: func(b []byte) ([]byte, error) {
			got, err := ParseRequest(b)
			if err != nil {
				return nil, err
			}
			return AppendRequestFrame(nil, got)
		},
		hex: hexStr,
	}
}

func responseGolden(name string, resp Response, wantShard bool, hexStr string) formatGolden {
	return formatGolden{
		name:   name,
		encode: func() ([]byte, error) { return AppendResponseFrameFor(nil, &resp, wantShard) },
		reencode: func(b []byte) ([]byte, error) {
			got, err := decodeResponseFrame(b)
			if err != nil {
				return nil, err
			}
			return AppendResponseFrameFor(nil, got, wantShard)
		},
		hex: hexStr,
	}
}

func TestFormatGoldenCtl(t *testing.T) {
	checkFormatGoldens(t, []formatGolden{
		requestGolden("request-ping", Request{Op: OpPing}, "b702010000000000"),
		requestGolden("request-submit-batch", Request{
			Op: OpSubmitBatch, Retry: true, ShardInfo: true,
			Span: &obs.SpanContext{Origin: 5, SubmitWallNs: 1722400000000000001},
			Events: []EventSpec{
				{Kind: "vm-migration", Flows: []FlowSpec{
					{Src: 1, Dst: 2, DemandBps: 1_000_000},
					{Src: 3, Dst: 4, DemandBps: 2_000_000, SizeBytes: 1 << 20},
				}},
				{Flows: []FlowSpec{{Src: 5, Dst: 6, DemandBps: 7}}},
			},
		}, "b7020207680000000500010022a1ac31e717020000000c766d2d6d6967726174696f6e0200010000000200000040420f00000000000000000000000000030000000400000080841e00000000000000100000000000000100050000000600000007000000000000000000000000000000"),
		requestGolden("request-json", Request{Op: OpFault, Fault: &FaultSpec{Action: "link-down", Link: 40}}, "b7020300370000007b226f70223a226661756c74222c226661756c74223a7b22616374696f6e223a226c696e6b2d646f776e222c226c696e6b223a34307d7d"),
		responseGolden("response-verdicts-shard", Response{OK: true,
			Verdicts: []SubmitVerdict{
				{OK: true, EventID: 42, Shard: 2},
				{Error: "queue full", Overloaded: true, Shard: 3},
				{Error: "bad host"},
			},
			Overload: &OverloadInfo{QueueDepth: 4096, Watermark: 4096, RetryAfterMs: 25},
		}, true, "b70202003a000000030000000502002a000000000000000603000a0071756575652066756c6c00080062616420686f73740100100000001000001900000000000000"),
		responseGolden("response-json", Response{OK: true, Status: &EventStatus{
			EventID: 42, State: StateDone, Kind: "submitted", Flows: 2, Admitted: 2,
			CostBps: 500_000_000, QueuingDelay: time.Millisecond, ECT: 3 * time.Millisecond,
		}}, false, "b70201009e0000007b226f6b223a747275652c22737461747573223a7b226576656e745f6964223a34322c227374617465223a22646f6e65222c226b696e64223a227375626d6974746564222c22666c6f7773223a322c2261646d6974746564223a322c22636f73745f627073223a3530303030303030302c2271756575696e675f64656c61795f6e73223a313030303030302c226563745f6e73223a333030303030307d7d"),
	})
}
