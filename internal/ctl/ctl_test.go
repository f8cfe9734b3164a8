package ctl

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sort"
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
	"netupdate/internal/snapshot"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// WithSpanSink sets Config.SpanSink.
func WithSpanSink(sink obs.Sink) ServerOption {
	return func(c *Config) { c.SpanSink = sink }
}

// WithHighWatermark sets Config.Watermark.
func WithHighWatermark(n int) ServerOption {
	return func(c *Config) { c.Watermark = n }
}

// mustNew is New with opts applied to cfg, for worlds that must build.
func mustNew(t *testing.T, cfg Config, opts ...ServerOption) *Server {
	t.Helper()
	for _, opt := range opts {
		opt(&cfg)
	}
	srv, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv
}

// testWorld is the memory-only Config of the tests' standard world: a
// k=4 fat-tree filled to 30 % with seeded background traffic.
func testWorld(t *testing.T, scheduler sched.Scheduler) (Config, *topology.FatTree) {
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
	return Config{Planner: planner, Scheduler: scheduler, Sim: sim.Config{InstallTime: time.Millisecond}}, ft
}

// startServer brings up a controller over a loaded k=4 fat-tree on an
// ephemeral port and returns a connected client. Everything is torn down
// by t.Cleanup.
func startServer(t *testing.T, scheduler sched.Scheduler, opts ...ServerOption) (*Client, *topology.FatTree) {
	t.Helper()
	cfg, ft := testWorld(t, scheduler)
	srv := mustNew(t, cfg, opts...)

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

	client, err := DialBinary(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := client.Close(); err != nil && !strings.Contains(err.Error(), "use of closed") {
			t.Errorf("client close: %v", err)
		}
	})
	return client, ft
}

// eventSpec builds a small event between distinct hosts.
func eventSpec(ft *topology.FatTree, nFlows int, demandMbps int64) EventSpec {
	hosts := ft.Hosts()
	spec := EventSpec{Kind: "test"}
	for i := 0; i < nFlows; i++ {
		spec.Flows = append(spec.Flows, FlowSpec{
			Src:       int(hosts[(2*i)%len(hosts)]),
			Dst:       int(hosts[(2*i+1)%len(hosts)]),
			DemandBps: demandMbps * 1e6,
		})
	}
	return spec
}

func TestPing(t *testing.T) {
	client, _ := startServer(t, sched.FIFO{})
	if err := client.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
}

func TestSubmitAndWait(t *testing.T) {
	client, ft := startServer(t, sched.NewPLMTF(2, 1))
	id, err := client.Submit(eventSpec(ft, 5, 10))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if id == 0 {
		t.Fatal("Submit returned zero ID")
	}
	st, err := client.WaitDone(id, 5*time.Second)
	if err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s, want done", st.State)
	}
	if st.Admitted != 5 || st.Failed != 0 {
		t.Errorf("admitted/failed = %d/%d, want 5/0", st.Admitted, st.Failed)
	}
	if st.ECT <= 0 {
		t.Errorf("ECT = %v, want > 0", st.ECT)
	}
}

// TestSubmitManyAndResults: Results lists every completed event, in the
// order the engine completed them — the order of the trace's completion
// records — which under a cost-aware scheduler is not admission order.
func TestSubmitManyAndResults(t *testing.T) {
	for _, tc := range []struct {
		name      string
		scheduler sched.Scheduler
		submit    func(t *testing.T, client *Client, ft *topology.FatTree) []int64
		// overtakes: the input is built so a later event completes first.
		overtakes bool
	}{
		{
			name: "lmtf, one at a time", scheduler: sched.NewLMTF(2, 1),
			submit: func(t *testing.T, client *Client, ft *topology.FatTree) []int64 {
				ids := make([]int64, 8)
				for i := range ids {
					id, err := client.Submit(eventSpec(ft, 3+i%4, 5))
					if err != nil {
						t.Fatalf("Submit %d: %v", i, err)
					}
					ids[i] = id
				}
				return ids
			},
		},
		{
			// One batch, so both events are queued before the first round:
			// the cross-pod event has to migrate traffic, the one-flow event
			// behind it is free, and p-lmtf runs the free one first.
			name: "p-lmtf, second event overtakes the first", scheduler: sched.NewPLMTF(2, 1), overtakes: true,
			submit: func(t *testing.T, client *Client, ft *topology.FatTree) []int64 {
				hosts := ft.Hosts()
				heavy := EventSpec{Kind: "heavy"}
				for i := 0; i < 6; i++ {
					heavy.Flows = append(heavy.Flows, FlowSpec{
						Src: int(hosts[i]), Dst: int(hosts[len(hosts)-1-i]), DemandBps: 300e6,
					})
				}
				verdicts, _, err := client.SubmitBatch([]EventSpec{heavy, eventSpec(ft, 1, 1)})
				if err != nil {
					t.Fatalf("SubmitBatch: %v", err)
				}
				ids := make([]int64, len(verdicts))
				for i, v := range verdicts {
					if !v.OK {
						t.Fatalf("event %d rejected: %s", i, v.Error)
					}
					ids[i] = v.EventID
				}
				return ids
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, ft := startServer(t, tc.scheduler)
			ids := tc.submit(t, client, ft)
			for _, id := range ids {
				if _, err := client.WaitDone(id, 5*time.Second); err != nil {
					t.Fatalf("WaitDone(%d): %v", id, err)
				}
			}
			results, err := client.Results()
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(ids) {
				t.Fatalf("results = %d, want %d", len(results), len(ids))
			}
			seen := map[int64]bool{}
			var order []int64
			for _, r := range results {
				if r.State != StateDone {
					t.Errorf("result %d state = %s", r.EventID, r.State)
				}
				seen[r.EventID] = true
				order = append(order, r.EventID)
			}
			for _, id := range ids {
				if !seen[id] {
					t.Errorf("event %d missing from results", id)
				}
			}

			records, err := client.Trace(0)
			if err != nil {
				t.Fatalf("Trace: %v", err)
			}
			var completed []int64
			for _, r := range records {
				if r.Kind == obs.KindSpan {
					completed = append(completed, r.Span.Event)
				}
			}
			if !reflect.DeepEqual(order, completed) {
				t.Errorf("results list events %v, the engine completed them in order %v", order, completed)
			}
			if tc.overtakes && sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
				t.Errorf("events completed in admission order %v: the input no longer exercises an overtake", order)
			}
		})
	}
}

func TestStats(t *testing.T) {
	client, ft := startServer(t, sched.FIFO{})
	before, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if before.Scheduler != "fifo" {
		t.Errorf("scheduler = %q, want fifo", before.Scheduler)
	}
	if before.Utilization <= 0 || before.FlowsPlaced == 0 {
		t.Errorf("stats show empty network: %+v", before)
	}
	id, err := client.Submit(eventSpec(ft, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitDone(id, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	after, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.EventsDone != before.EventsDone+1 {
		t.Errorf("EventsDone = %d, want %d", after.EventsDone, before.EventsDone+1)
	}
	if after.VirtualClock <= before.VirtualClock {
		t.Error("virtual clock did not advance")
	}
}

func TestStatusUnknownEvent(t *testing.T) {
	client, _ := startServer(t, sched.FIFO{})
	st, err := client.Status(9999)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateUnknown {
		t.Errorf("state = %s, want unknown", st.State)
	}
}

func TestSubmitValidation(t *testing.T) {
	client, ft := startServer(t, sched.FIFO{})
	host := int(ft.Hosts()[0])
	cases := []struct {
		name string
		spec EventSpec
	}{
		{"no flows", EventSpec{}},
		{"src==dst", EventSpec{Flows: []FlowSpec{{Src: host, Dst: host, DemandBps: 1e6}}}},
		{"zero demand", EventSpec{Flows: []FlowSpec{{Src: host, Dst: host + 1, DemandBps: 0}}}},
		{"negative size", EventSpec{Flows: []FlowSpec{{Src: host, Dst: host + 1, DemandBps: 1e6, SizeBytes: -1}}}},
		{"out of range", EventSpec{Flows: []FlowSpec{{Src: -1, Dst: host, DemandBps: 1e6}}}},
		{"node index too big", EventSpec{Flows: []FlowSpec{{Src: 1 << 20, Dst: host, DemandBps: 1e6}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := client.Submit(tc.spec); err == nil {
				t.Error("Submit succeeded, want validation error")
			}
		})
	}
	// The connection survives rejected submissions.
	if err := client.Ping(); err != nil {
		t.Fatalf("Ping after rejects: %v", err)
	}
}

func TestUnknownOp(t *testing.T) {
	client, _ := startServer(t, sched.FIFO{})
	if _, err := client.roundTrip(Request{Op: "bogus"}); err == nil {
		t.Error("bogus op succeeded")
	}
}

func TestConcurrentClients(t *testing.T) {
	client, ft := startServer(t, sched.NewPLMTF(2, 3))
	addr := client.conn.RemoteAddr().String()

	const workers = 4
	const perWorker = 3
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialBinary(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 0; i < perWorker; i++ {
				id, err := c.Submit(eventSpec(ft, 2+w, 5))
				if err != nil {
					errCh <- err
					return
				}
				if _, err := c.WaitDone(id, 10*time.Second); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	results, err := client.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != workers*perWorker {
		t.Errorf("results = %d, want %d", len(results), workers*perWorker)
	}
}

// TestNonMagicFirstByteRefused: a connection whose first byte is not
// FrameMagic (a JSON line, say) gets one error line naming the byte and
// is closed; other clients are unaffected.
func TestNonMagicFirstByteRefused(t *testing.T) {
	client, _ := startServer(t, sched.FIFO{})
	addr := client.conn.RemoteAddr().String()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"ping"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// ReadAll returns without error only at EOF: the server closed.
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("read until close: %v (got %q)", err, got)
	}
	line := string(got)
	if strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") ||
		!strings.Contains(line, "0x7b") || !strings.Contains(line, "0xb7") {
		t.Errorf("refusal = %q, want one line naming 0x7b and the frame magic 0xb7", line)
	}
	if err := client.Ping(); err != nil {
		t.Fatalf("Ping after refused peer: %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net1 := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.WidestFit{})
	planner := core.NewPlanner(migration.NewPlanner(net1, 0), core.FailSkip)
	srv := mustNew(t, Config{Planner: planner, Scheduler: sched.FIFO{}})
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve after Close = %v, want ErrServerClosed", err)
	}
}

// TestCloseUnderLoadNoDeadlock closes the server while many clients are
// dispatching into the buffered command channel. A regression here
// deadlocks: a command left in the buffer after the state loop exits
// strands its handler on the reply, and Close hangs on conns.Wait.
func TestCloseUnderLoadNoDeadlock(t *testing.T) {
	ft, err := topology.NewFatTree(4, topology.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net1 := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.WidestFit{})
	planner := core.NewPlanner(migration.NewPlanner(net1, 0), core.FailSkip)
	srv := mustNew(t, Config{Planner: planner, Scheduler: sched.FIFO{}, Sim: sim.Config{InstallTime: time.Millisecond}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialBinary(l.Addr().String())
			if err != nil {
				return
			}
			defer c.Close()
			spec := eventSpec(ft, 1, 1)
			// Submit until the connection drops or the server refuses:
			// either way the call must return, never hang.
			for {
				if _, err := c.Submit(spec); err != nil {
					return
				}
			}
		}()
	}

	time.Sleep(50 * time.Millisecond) // let submissions pile into the buffer
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked under concurrent submissions")
	}
	wg.Wait()
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestProtocolWireFormat pins a raw v2 exchange framed by hand: an
// 8-byte header (magic, version, kind, flags, little-endian payload
// length) around a JSON body, answered by a JSON response frame.
func TestProtocolWireFormat(t *testing.T) {
	client, ft := startServer(t, sched.FIFO{})
	addr := client.conn.RemoteAddr().String()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	host := ft.Hosts()
	body := fmt.Sprintf(`{"op":"submit","event":{"flows":[{"src":%d,"dst":%d,"demand_bps":1000000}]}}`, host[0], host[1])
	frame := []byte{0xB7, 2, 3, 0, 0, 0, 0, 0} // magic, v2, JSON request, no flags
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(body)))
	if _, err := conn.Write(append(frame, body...)); err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	if hdr[0] != 0xB7 || hdr[1] != 2 || hdr[2] != 1 || hdr[3] != 0 {
		t.Fatalf("response header % x, want b7 02 01 00 (JSON response)", hdr[:4])
	}
	payload := make([]byte, binary.LittleEndian.Uint32(hdr[4:]))
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatalf("response body %q: %v", payload, err)
	}
	if !resp.OK || resp.EventID == 0 {
		t.Errorf("raw submit response = %+v", resp)
	}
}

func TestSnapshotOp(t *testing.T) {
	client, ft := startServer(t, sched.FIFO{})
	id, err := client.Submit(eventSpec(ft, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitDone(id, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	snap, err := client.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if len(snap.Nodes) != ft.Graph().NumNodes() {
		t.Errorf("snapshot nodes = %d, want %d", len(snap.Nodes), ft.Graph().NumNodes())
	}
	if len(snap.Flows) == 0 {
		t.Error("snapshot has no flows despite loaded fabric")
	}
	// A fetched snapshot must restore into a working network.
	restored, err := snapshot.Restore(snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.Utilization() <= 0 {
		t.Error("restored network empty")
	}
}

// loadedFabricLink finds the most loaded switch-switch link purely from a
// snapshot, so the test never touches the server's graph concurrently.
func loadedFabricLink(t *testing.T, snap *snapshot.Snapshot) int {
	t.Helper()
	load := make([]int64, len(snap.Links))
	for _, f := range snap.Flows {
		for _, l := range f.PathLinks {
			load[l] += f.DemandBps
		}
	}
	best, bestLink := int64(-1), -1
	for i, l := range snap.Links {
		if !topology.NodeKind(snap.Nodes[l.From].Kind).IsSwitch() ||
			!topology.NodeKind(snap.Nodes[l.To].Kind).IsSwitch() {
			continue
		}
		if load[i] > best {
			best, bestLink = load[i], i
		}
	}
	if best <= 0 {
		t.Fatal("background fill left every fabric link empty")
	}
	return bestLink
}

func TestFaultLinkDownRecovery(t *testing.T) {
	client, _ := startServer(t, sched.NewPLMTF(2, 1))
	snap, err := client.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	link := loadedFabricLink(t, snap)

	res, err := client.Fault(FaultSpec{Action: "link-down", Link: link})
	if err != nil {
		t.Fatalf("Fault link-down: %v", err)
	}
	if res.Action != "link-down" || res.LinksChanged != 1 || res.LinksDown != 1 {
		t.Errorf("fault result = %+v, want link-down changing 1 link", res)
	}
	if res.FlowsAffected < 1 || res.RepairEventID == 0 {
		t.Fatalf("fault result = %+v, want disrupted flows and a repair event", res)
	}

	// The minted repair event schedules like any submitted event.
	st, err := client.WaitDone(res.RepairEventID, 5*time.Second)
	if err != nil {
		t.Fatalf("WaitDone(repair): %v", err)
	}
	if st.Kind != "link-repair" {
		t.Errorf("repair event kind = %q, want link-repair", st.Kind)
	}
	if st.Flows != res.FlowsAffected {
		t.Errorf("repair event flows = %d, want %d", st.Flows, res.FlowsAffected)
	}

	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FaultsInjected != 1 || stats.LinksDown != 1 ||
		stats.RepairEvents != 1 || stats.FlowsDisrupted != res.FlowsAffected {
		t.Errorf("stats = %+v, want 1 fault, 1 link down, 1 repair, %d disrupted",
			stats, res.FlowsAffected)
	}

	up, err := client.Fault(FaultSpec{Action: "link-up", Link: link})
	if err != nil {
		t.Fatalf("Fault link-up: %v", err)
	}
	if up.LinksDown != 0 || up.LinksChanged != 1 || up.RepairEventID != 0 {
		t.Errorf("link-up result = %+v, want 1 link restored, none down", up)
	}
}

func TestFaultInstallTimeout(t *testing.T) {
	client, ft := startServer(t, sched.FIFO{})
	if _, err := client.Fault(FaultSpec{Action: "install-timeout", Times: 1}); err != nil {
		t.Fatalf("Fault install-timeout: %v", err)
	}
	id, err := client.Submit(eventSpec(ft, 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.WaitDone(id, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 2 || st.Failed != 0 {
		t.Errorf("admitted/failed = %d/%d, want 2/0 (one timeout is survivable)", st.Admitted, st.Failed)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.InstallRetries != 1 || stats.InstallRollbacks != 0 {
		t.Errorf("retries/rollbacks = %d/%d, want 1/0", stats.InstallRetries, stats.InstallRollbacks)
	}
}

func TestFaultValidation(t *testing.T) {
	client, _ := startServer(t, sched.FIFO{})
	cases := []struct {
		name string
		spec FaultSpec
	}{
		{"unknown action", FaultSpec{Action: "meteor-strike"}},
		{"link out of range", FaultSpec{Action: "link-down", Link: 1 << 20}},
		{"node out of range", FaultSpec{Action: "switch-down", Node: -1}},
		{"negative times", FaultSpec{Action: "install-timeout", Times: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := client.Fault(tc.spec); err == nil {
				t.Error("Fault succeeded, want validation error")
			}
		})
	}
	// The connection survives rejected injections.
	if err := client.Ping(); err != nil {
		t.Fatalf("Ping after rejects: %v", err)
	}
}

func TestTraceOp(t *testing.T) {
	client, ft := startServer(t, sched.NewPLMTF(2, 1))
	const n = 4
	for i := 0; i < n; i++ {
		id, err := client.Submit(eventSpec(ft, 3, 5))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.WaitDone(id, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	records, err := client.Trace(0)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	var arrivals, spans, rounds int
	for _, r := range records {
		switch r.Kind {
		case obs.KindArrival:
			arrivals++
		case obs.KindSpan:
			spans++
		case obs.KindRound:
			rounds++
		}
	}
	if arrivals != n || spans != n || rounds == 0 {
		t.Errorf("trace arrivals/spans/rounds = %d/%d/%d, want %d/%d/>0",
			arrivals, spans, rounds, n, n)
	}
	// A bounded fetch returns exactly the trailing records.
	last2, err := client.Trace(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(last2) != 2 {
		t.Fatalf("Trace(2) returned %d records", len(last2))
	}
	if want := records[len(records)-1]; last2[1].Kind != want.Kind || last2[1].VT != want.VT {
		t.Errorf("Trace(2) tail = %+v, want %+v", last2[1], want)
	}
	// Stats must surface probe telemetry after scheduling activity.
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds == 0 {
		t.Error("stats rounds = 0 after scheduling")
	}
	if stats.Probes == 0 {
		t.Error("stats show no probes after scheduling")
	}

	// Reorder prices the queue through the same Planner.Probe, so its
	// probes are counted as well: one round over a one-event queue.
	reorder, ft := startServer(t, sched.Reorder{})
	id, err := reorder.Submit(eventSpec(ft, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reorder.WaitDone(id, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if stats, err = reorder.Stats(); err != nil {
		t.Fatal(err)
	}
	if stats.Probes != 1 {
		t.Errorf("reorder stats show %d probes after one single-event round, want 1", stats.Probes)
	}
}

// TestNewRejectsBadConfig: every malformed Config is a returned error,
// not a panic or a silently different deployment.
func TestNewRejectsBadConfig(t *testing.T) {
	planner, scheduler, _ := buildWALWorld(t, false)
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"no planner", Config{Scheduler: scheduler}, "Planner"},
		{"no scheduler", Config{Planner: planner}, "Scheduler"},
		{"wal without log", Config{Planner: planner, Scheduler: scheduler, WAL: &WALConfig{}}, "Log is nil"},
		{"shard id zero", Config{Planner: planner, Scheduler: scheduler, Shard: ShardIdentity{ID: 0, Count: 4}}, "shard 0 outside 1..4"},
		{"shard id past count", Config{Planner: planner, Scheduler: scheduler, Shard: ShardIdentity{ID: 5, Count: 4}}, "shard 5 outside 1..4"},
		{"shard without count", Config{Planner: planner, Scheduler: scheduler, Shard: ShardIdentity{ID: 1}}, "shard 1 outside 1..0"},
	} {
		srv, _, err := New(tc.cfg)
		if err == nil {
			srv.Close()
			t.Errorf("%s: New succeeded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
