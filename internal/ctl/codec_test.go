package ctl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/obs"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// TestRequestFrameRoundTrip encodes every operation through the binary
// framing and decodes it back, checking the dense submit-batch path and
// the JSON envelope path both survive intact.
func TestRequestFrameRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpPing},
		{Op: OpSubmitBatch, Retry: true, Events: []EventSpec{
			{Kind: "vm-arrival", Flows: []FlowSpec{
				{Src: 1, Dst: 2, DemandBps: 1_000_000},
				{Src: 3, Dst: 4, DemandBps: 2_000_000, SizeBytes: 1 << 20},
			}},
			{Flows: []FlowSpec{{Src: 5, Dst: 6, DemandBps: 7}}},
		}},
		{Op: OpSubmitBatch, Span: &obs.SpanContext{Origin: 9, SubmitWallNs: 1722400000123456789}, Events: []EventSpec{
			{Kind: "spanned", Flows: []FlowSpec{{Src: 1, Dst: 2, DemandBps: 5}}},
		}},
		{Op: OpSubmit, Event: &EventSpec{Kind: "x", Flows: []FlowSpec{{Src: 0, Dst: 1, DemandBps: 9}}}},
		{Op: OpStatus, EventID: 42},
		{Op: OpResults},
		{Op: OpStats},
		{Op: OpSnapshot},
		{Op: OpTrace, N: 17},
		{Op: OpFault, Fault: &FaultSpec{Action: "link-down", Link: 3}},
	}
	for _, req := range reqs {
		t.Run(string(req.Op), func(t *testing.T) {
			frame, err := AppendRequestFrame(nil, &req)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := ParseRequest(frame)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.Version != ProtocolVersionBinary {
				t.Errorf("decoded version %d, want %d", got.Version, ProtocolVersionBinary)
			}
			want := req
			want.Version = ProtocolVersionBinary
			wj, _ := json.Marshal(want)
			gj, _ := json.Marshal(got)
			if !bytes.Equal(wj, gj) {
				t.Errorf("round-trip mismatch:\n want %s\n got  %s", wj, gj)
			}
		})
	}
}

// TestResponseFrameRoundTrip covers the dense verdicts encoding —
// mixed accept/reject/overload verdicts, with and without overload
// info — and the JSON envelope fallback for other response shapes.
func TestResponseFrameRoundTrip(t *testing.T) {
	resps := []Response{
		{OK: true, Verdicts: []SubmitVerdict{
			{OK: true, EventID: 7},
			{Error: "bad flow", Overloaded: false},
			{Error: "queue full", Overloaded: true},
		}, Overload: &OverloadInfo{QueueDepth: 100, Watermark: 64, RetryAfterMs: 25}},
		{OK: true, Verdicts: []SubmitVerdict{{OK: true, EventID: 1}}},
		{OK: true, EventID: 5},
		{OK: false, Error: "no such event"},
		{OK: false, Error: "overloaded", Overload: &OverloadInfo{QueueDepth: 9, Watermark: 8, RetryAfterMs: 5}},
	}
	for i, resp := range resps {
		frame, err := AppendResponseFrame(nil, &resp)
		if err != nil {
			t.Fatalf("resp %d: encode: %v", i, err)
		}
		got, err := decodeResponseFrame(frame)
		if err != nil {
			t.Fatalf("resp %d: decode: %v", i, err)
		}
		wj, _ := json.Marshal(&resp)
		gj, _ := json.Marshal(got)
		if !bytes.Equal(wj, gj) {
			t.Errorf("resp %d round-trip mismatch:\n want %s\n got  %s", i, wj, gj)
		}
	}
}

// TestBinaryClientEndToEnd exercises every client call over the binary
// codec against a live server, and checks the codec counters the server
// reports.
func TestBinaryClientEndToEnd(t *testing.T) {
	jsonClient, ft := startServer(t, sched.NewLMTF(4, 1))
	addr := jsonClient.conn.RemoteAddr().String()
	client, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	id, err := client.Submit(eventSpec(ft, 2, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := client.WaitDone(id, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	verdicts, _, err := client.SubmitBatch([]EventSpec{eventSpec(ft, 1, 1), eventSpec(ft, 2, 2)})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if len(verdicts) != 2 {
		t.Fatalf("got %d verdicts, want 2", len(verdicts))
	}
	for i, v := range verdicts {
		if !v.OK {
			t.Fatalf("verdict %d rejected: %s", i, v.Error)
		}
		if _, err := client.WaitDone(v.EventID, 5*time.Second); err != nil {
			t.Fatalf("WaitDone(%d): %v", v.EventID, err)
		}
	}
	if _, err := client.Results(); err != nil {
		t.Fatalf("Results: %v", err)
	}
	if _, err := client.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if _, err := client.Trace(10); err != nil {
		t.Fatalf("Trace: %v", err)
	}
	// Both codecs hit the same state loop: the JSON client sees the
	// binary client's events and vice versa.
	st, err := jsonClient.Stats()
	if err != nil {
		t.Fatalf("Stats over JSON: %v", err)
	}
	if st.EventsDone < 3 {
		t.Errorf("completed %d events, want >= 3", st.EventsDone)
	}
	if st.CodecV2Conns != 1 {
		t.Errorf("codec_v2_conns = %d, want 1", st.CodecV2Conns)
	}
	if st.FramesV2 == 0 {
		t.Error("frames_v2 stayed 0 despite binary traffic")
	}
	if st.FramesV1 == 0 {
		t.Error("frames_v1 stayed 0 despite JSON traffic")
	}
}

// TestBinaryRejectsValidation checks the dense verdict path carries
// per-event validation errors like JSON does.
func TestBinaryRejectsValidation(t *testing.T) {
	jsonClient, ft := startServer(t, sched.FIFO{})
	client, err := DialBinary(jsonClient.conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	verdicts, _, err := client.SubmitBatch([]EventSpec{
		eventSpec(ft, 1, 1),
		{Kind: "bad"}, // no flows
	})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if !verdicts[0].OK {
		t.Errorf("valid event rejected: %s", verdicts[0].Error)
	}
	if verdicts[1].OK || verdicts[1].Error == "" {
		t.Errorf("invalid event accepted: %+v", verdicts[1])
	}
}

// TestPipelineSubmit drives one binary Client from eight goroutines,
// eight batches each. Batch sizes differ per goroutine, so an answer read
// by the wrong call shows up as a wrong verdict count.
func TestPipelineSubmit(t *testing.T) {
	jsonClient, ft := startServer(t, sched.FIFO{}, WithHighWatermark(100000))
	c, err := DialBinary(jsonClient.conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers, batches = 8, 8
	spec := eventSpec(ft, 1, 1)
	var (
		mu   sync.Mutex
		ids  = map[int64]bool{}
		want int
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		size := w%4 + 1
		want += size * batches
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]EventSpec, size)
			for i := range batch {
				batch[i] = spec
			}
			for b := 0; b < batches; b++ {
				verdicts, _, err := c.SubmitBatch(batch)
				if err != nil {
					t.Errorf("SubmitBatch: %v", err)
					return
				}
				if len(verdicts) != size {
					t.Errorf("batch of %d answered with %d verdicts", size, len(verdicts))
					return
				}
				mu.Lock()
				for _, v := range verdicts {
					if !v.OK || ids[v.EventID] {
						t.Errorf("verdict %+v: rejected or answered twice", v)
					}
					ids[v.EventID] = true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(ids) != want {
		t.Errorf("accepted %d events, want %d", len(ids), want)
	}
}

// stubPeer accepts one connection on a loopback listener and hands it to
// serve, with request reading and response writing in the codec binary
// selects. It returns a Client of that codec dialed to it; serve must
// return once read fails.
func stubPeer(t *testing.T, binary bool, serve func(read func() (*Request, error), write func(*Response) error)) *Client {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		l.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		dec, enc := json.NewDecoder(br), json.NewEncoder(conn)
		var frame []byte
		read := func() (*Request, error) {
			if binary {
				var err error
				if frame, err = readFrame(br, frame); err != nil {
					return nil, err
				}
				return ParseRequest(frame)
			}
			var raw json.RawMessage
			if err := dec.Decode(&raw); err != nil {
				return nil, err
			}
			return ParseRequest(raw)
		}
		write := func(resp *Response) error {
			if !binary {
				return enc.Encode(resp)
			}
			out, err := AppendResponseFrame(nil, resp)
			if err == nil {
				_, err = conn.Write(out)
			}
			return err
		}
		serve(read, write)
	}()
	dial := Dial
	if binary {
		dial = DialBinary
	}
	c, err := dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// within fails the test unless f returns inside five seconds.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s hung", what)
	}
}

// TestClientPipelinesCalls pins that concurrent calls overlap on the
// wire: the peer reads two whole requests before it answers either, then
// answers them in order, and each caller must get its own answer.
func TestClientPipelinesCalls(t *testing.T) {
	for _, binary := range []bool{false, true} {
		t.Run(map[bool]string{false: "v1", true: "v2"}[binary], func(t *testing.T) {
			c := stubPeer(t, binary, func(read func() (*Request, error), write func(*Response) error) {
				var reqs []*Request
				for len(reqs) < 2 {
					req, err := read()
					if err != nil {
						return
					}
					reqs = append(reqs, req)
				}
				for _, req := range reqs {
					if write(&Response{OK: true, Status: &EventStatus{EventID: req.EventID, State: StateDone}}) != nil {
						return
					}
				}
			})
			errs := make(chan error, 2)
			for _, id := range []int64{1, 2} {
				go func() {
					st, err := c.Status(id)
					if err == nil && st.EventID != id {
						err = fmt.Errorf("Status(%d) got event %d's answer", id, st.EventID)
					}
					errs <- err
				}()
			}
			within(t, "two overlapping Status calls", func() {
				for range 2 {
					if err := <-errs; err != nil {
						t.Error(err)
					}
				}
			})
		})
	}
}

// TestPipelineServerGone ends the connection with four calls in flight
// on one Client, by the peer dying or by Close: every call fails, a later
// call fails without touching the wire, and Close returns.
func TestPipelineServerGone(t *testing.T) {
	for _, tc := range []struct {
		name    string
		peerDie bool
	}{{"peer dies", true}, {"client closes", false}} {
		t.Run(tc.name, func(t *testing.T) {
			inFlight := make(chan struct{})
			c := stubPeer(t, true, func(read func() (*Request, error), _ func(*Response) error) {
				for i := 0; i < 4; i++ {
					if _, err := read(); err != nil {
						return
					}
				}
				close(inFlight)
				for !tc.peerDie {
					if _, err := read(); err != nil {
						return
					}
				}
			})
			spec := EventSpec{Flows: []FlowSpec{{Src: 0, Dst: 1, DemandBps: 1}}}
			errs := make(chan error, 4)
			for i := 0; i < 4; i++ {
				go func() {
					_, _, err := c.SubmitBatch([]EventSpec{spec})
					errs <- err
				}()
			}
			within(t, "four submissions reaching the peer", func() { <-inFlight })
			if !tc.peerDie {
				within(t, "Close with calls in flight", func() {
					if err := c.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
				})
			}
			within(t, "calls in flight on a dead connection", func() {
				for i := 0; i < 4; i++ {
					if err := <-errs; err == nil {
						t.Error("a call in flight on a dead connection succeeded")
					}
				}
			})
			within(t, "a call after the failure", func() {
				if err := c.Ping(); err == nil {
					t.Error("Ping on a dead connection succeeded")
				}
			})
			within(t, "Close after the failure", func() {
				if err := c.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			})
		})
	}
}

// startCodecServer brings up a server over its own deterministically
// seeded network for the trace-parity test. Extra server options (e.g.
// a span sink) are applied as given.
func startCodecServer(t *testing.T, opts ...ServerOption) string {
	t.Helper()
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net1 := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(7))
	gen, err := trace.NewGenerator(1, trace.YahooLike{}, ft.Hosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.FillBackground(net1, gen, 0.3, 0); err != nil {
		t.Fatal(err)
	}
	planner := core.NewPlanner(migration.NewPlanner(net1, 0), core.FailSkip)
	srv := mustNew(t, Config{Planner: planner, Scheduler: sched.NewLMTF(4, 99), Sim: sim.Config{InstallTime: time.Millisecond}}, opts...)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return l.Addr().String()
}

// TestCodecTraceParity runs the same workload through {JSON v1, binary
// v2} x {spans off, spans on} and demands byte-identical virtual-clock
// traces: the codec and the latency span pipeline are
// transport/observability knobs and must not leak into scheduling
// decisions. Stage records go to their
// own span channel, never the trace ring, so even with a span sink
// attached the main trace must not move.
func TestCodecTraceParity(t *testing.T) {
	specs := []EventSpec{
		{Kind: "a", Flows: []FlowSpec{{Src: 0, Dst: 1, DemandBps: 40e6}, {Src: 2, Dst: 3, DemandBps: 60e6}}},
		{Kind: "b", Flows: []FlowSpec{{Src: 4, Dst: 5, DemandBps: 120e6}}},
		{Kind: "c", Flows: []FlowSpec{{Src: 6, Dst: 7, DemandBps: 10e6}, {Src: 8, Dst: 9, DemandBps: 30e6}, {Src: 10, Dst: 11, DemandBps: 70e6}}},
		{Kind: "d", Flows: []FlowSpec{{Src: 12, Dst: 13, DemandBps: 250e6}}},
	}
	type combo struct {
		name   string
		binary bool
		spans  bool
	}
	combos := []combo{
		{"v1", false, false},
		{"v2", true, false},
		{"v1-spans", false, true},
		{"v2-spans", true, true},
	}
	traces := make(map[string]string)
	for _, cb := range combos {
		var opts []ServerOption
		var spanBuf syncBuffer
		if cb.spans {
			opts = append(opts, WithSpanSink(obs.NewJSONLSink(&spanBuf)))
		}
		addr := startCodecServer(t, opts...)
		var client *Client
		var err error
		if cb.binary {
			client, err = DialBinary(addr)
		} else {
			client, err = Dial(addr)
		}
		if err != nil {
			t.Fatal(err)
		}
		if cb.spans {
			feats, err := client.Features()
			if err != nil {
				t.Fatalf("%s: Features: %v", cb.name, err)
			}
			if !slices.Contains(feats, FeatureSpanContext) {
				t.Fatalf("%s: server does not advertise %q (got %v)", cb.name, FeatureSpanContext, feats)
			}
			client.EnableSpans(3)
		}
		verdicts, _, err := client.SubmitBatch(specs)
		if err != nil {
			t.Fatalf("%s: SubmitBatch: %v", cb.name, err)
		}
		for i, v := range verdicts {
			if !v.OK {
				t.Fatalf("%s: event %d rejected: %s", cb.name, i, v.Error)
			}
			if _, err := client.WaitDone(v.EventID, 10*time.Second); err != nil {
				t.Fatalf("%s: WaitDone(%d): %v", cb.name, v.EventID, err)
			}
		}
		records, err := client.Trace(0)
		if err != nil {
			t.Fatalf("%s: Trace: %v", cb.name, err)
		}
		if len(records) == 0 {
			t.Fatalf("%s: empty trace", cb.name)
		}
		var sb strings.Builder
		for _, r := range records {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(b)
			sb.WriteByte('\n')
		}
		traces[cb.name] = sb.String()
		client.Close()
	}
	want := traces[combos[0].name]
	for _, cb := range combos[1:] {
		if traces[cb.name] != want {
			t.Errorf("trace for %s differs from %s:\n%s", cb.name, combos[0].name,
				firstDiffLine(want, traces[cb.name]))
		}
	}
}

// firstDiffLine reports the first line where two line-oriented strings
// diverge, for readable parity failures.
func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
