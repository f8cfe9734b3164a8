package ctl

import (
	"testing"
)

// FuzzParseRequest ensures arbitrary bytes never panic the protocol
// decoder and that anything it accepts honours the per-op payload
// contract the state loop relies on (submit has an event, fault has a
// well-formed spec, the op is known).
func FuzzParseRequest(f *testing.F) {
	seeds := []string{
		`{"op":"ping"}`,
		`{"op":"submit","event":{"kind":"test","flows":[{"src":0,"dst":1,"demand_bps":1000000}]}}`,
		`{"op":"status","event_id":3}`,
		`{"op":"results"}`,
		`{"op":"stats"}`,
		`{"op":"snapshot"}`,
		`{"op":"trace","n":10}`,
		`{"op":"fault","fault":{"action":"link-down","link":2}}`,
		`{"op":"fault","fault":{"action":"switch-up","node":5}}`,
		`{"op":"fault","fault":{"action":"install-timeout","event":1,"times":3}}`,
		`{"op":"fault"}`,
		`{"op":"fault","fault":{"action":"install-timeout","times":-1}}`,
		`{"op":"submit"}`,
		`{"op":"bogus"}`,
		`not json at all`,
		`{"op":"ping","event":{"flows":null}}`,
		`{"op":42}`,
		`{"v":1,"op":"ping"}`,
		`{"v":2,"op":"ping"}`,
		`{"v":-1,"op":"stats"}`,
		`{"op":"submit-batch","events":[{"flows":[{"src":0,"dst":1,"demand_bps":1000000}]},{"kind":"big","flows":[{"src":2,"dst":3,"demand_bps":5000000}]}]}`,
		`{"v":1,"op":"submit-batch","retry":true,"events":[{"flows":[{"src":0,"dst":1,"demand_bps":1}]}]}`,
		`{"op":"submit-batch"}`,
		`{"op":"submit-batch","events":[]}`,
	}
	// Each JSON body rides a binOpJSON frame, as on the wire.
	for _, s := range seeds {
		frame := make([]byte, FrameHeaderSize, FrameHeaderSize+len(s))
		putHeader(frame, binOpJSON, 0, len(s))
		f.Add(append(frame, s...))
	}
	// Binary v2 frames: well-formed ping and submit-batch, plus the
	// malformed shapes the decoder must reject without panicking —
	// truncated header, truncated payload, oversized and lying length
	// fields, a version-downgrade byte, and trailing junk.
	ping, err := AppendRequestFrame(nil, &Request{Op: OpPing})
	if err != nil {
		f.Fatal(err)
	}
	batch, err := AppendRequestFrame(nil, &Request{Op: OpSubmitBatch, Events: []EventSpec{
		{Kind: "test", Flows: []FlowSpec{{Src: 0, Dst: 1, DemandBps: 1_000_000}}},
		{Flows: []FlowSpec{{Src: 2, Dst: 3, DemandBps: 5_000_000, SizeBytes: 4096}}},
	}})
	if err != nil {
		f.Fatal(err)
	}
	jsonEnv, err := AppendRequestFrame(nil, &Request{Op: OpStats})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ping)
	f.Add(batch)
	f.Add(jsonEnv)
	f.Add(ping[:FrameHeaderSize-3])                       // truncated header
	f.Add(batch[:len(batch)-5])                           // truncated payload
	f.Add(append(append([]byte{}, batch...), 0xAA, 0xBB)) // trailing junk
	downgrade := append([]byte{}, ping...)
	downgrade[1] = 1 // binary framing with a v1 version byte
	f.Add(downgrade)
	badLen := append([]byte{}, batch...)
	badLen[4], badLen[5], badLen[6], badLen[7] = 0xFF, 0xFF, 0xFF, 0x7F // length far beyond cap
	f.Add(badLen)
	lyingLen := append([]byte{}, batch...)
	lyingLen[4]++ // header claims one more byte than the payload carries
	f.Add(lyingLen)
	f.Add([]byte{FrameMagic})                                                      // magic alone
	f.Add([]byte{FrameMagic, ProtocolVersionBinary, 0x7F, 0, 0, 0, 0, 0})          // unknown frame kind
	f.Add([]byte{FrameMagic, ProtocolVersionBinary, 2, 0, 4, 0, 0, 0, 0, 0, 0, 0}) // batch with count 0
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		if err != nil {
			if req != nil {
				t.Fatal("ParseRequest returned a request alongside an error")
			}
			return
		}
		if !knownOps[req.Op] {
			t.Fatalf("accepted unknown op %q", req.Op)
		}
		if data[0] != FrameMagic || data[1] != ProtocolVersionBinary {
			t.Fatalf("accepted a frame with header % x", data[:2])
		}
		switch req.Op {
		case OpSubmit:
			if req.Event == nil {
				t.Fatal("accepted submit without event")
			}
		case OpSubmitBatch:
			if len(req.Events) == 0 {
				t.Fatal("accepted submit-batch without events")
			}
		case OpFault:
			if req.Fault == nil {
				t.Fatal("accepted fault without spec")
			}
			if req.Fault.Times < 0 || req.Fault.Event < 0 {
				t.Fatalf("accepted negative fault parameters: %+v", req.Fault)
			}
		}
	})
}
