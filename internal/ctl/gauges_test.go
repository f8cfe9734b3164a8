package ctl

import (
	"bufio"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"netupdate/internal/obs"
	"netupdate/internal/topology"
)

// linkUtilBounds are netupdate_link_utilization's bucket bounds.
var linkUtilBounds = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}

// gaugeView is what one reading says of the four gauges computed when
// they are read. LinkUtil counts links per bucket, +Inf last; it is nil
// for a read that does not carry the distribution (Stats).
type gaugeView struct {
	Clock       time.Duration
	FlowsPlaced int64
	Utilization float64
	LinkUtil    []int64
}

// liveGauges recounts the four gauges from the world itself, on the
// state loop, without refreshing anything.
func liveGauges(t *testing.T, srv *Server) gaugeView {
	t.Helper()
	var v gaugeView
	err := srv.onLoop(func() error {
		net := srv.planner.Network()
		g := net.Graph()
		v = gaugeView{
			Clock:       srv.engine.Clock(),
			FlowsPlaced: int64(len(net.Registry().Placed())),
			Utilization: g.Utilization(),
			LinkUtil:    make([]int64, len(linkUtilBounds)+1),
		}
		for i := 0; i < g.NumLinks(); i++ {
			u := g.Link(topology.LinkID(i)).Utilization()
			b := 0
			for b < len(linkUtilBounds) && u > linkUtilBounds[b] {
				b++
			}
			v.LinkUtil[b]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// sampleGauges reads the four gauges from a registry sample.
func sampleGauges(t *testing.T, s obs.Sample) gaugeView {
	t.Helper()
	get := func(name string) obs.Value {
		v, ok := s.Get(name)
		if !ok {
			t.Fatalf("sample has no %s", name)
		}
		return v
	}
	v := gaugeView{
		Clock:       time.Duration(get("netupdate_virtual_clock_ns").Int),
		FlowsPlaced: get("netupdate_flows_placed").Int,
		Utilization: get("netupdate_utilization").Float,
		LinkUtil:    make([]int64, len(linkUtilBounds)+1),
	}
	for _, b := range get("netupdate_link_utilization").Hist.Buckets {
		v.LinkUtil[b.Index] = b.Count
	}
	return v
}

// scrapeGauges reads the four gauges from a Prometheus text scrape,
// undoing the cumulative bucket counts.
func scrapeGauges(t *testing.T, web *httptest.Server) gaugeView {
	t.Helper()
	resp, err := web.Client().Get(web.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v gaugeView
	var cum int64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		var err error
		switch {
		case name == "netupdate_virtual_clock_ns":
			var ns int64
			ns, err = strconv.ParseInt(val, 10, 64)
			v.Clock = time.Duration(ns)
		case name == "netupdate_flows_placed":
			v.FlowsPlaced, err = strconv.ParseInt(val, 10, 64)
		case name == "netupdate_utilization":
			v.Utilization, err = strconv.ParseFloat(val, 64)
		case strings.HasPrefix(name, "netupdate_link_utilization_bucket{"):
			var n int64
			n, err = strconv.ParseInt(val, 10, 64)
			v.LinkUtil = append(v.LinkUtil, n-cum)
			cum = n
		}
		if err != nil {
			t.Fatalf("scrape line %q: %v", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return v
}

// gaugeRead is one read path, answering what it says of the gauges.
type gaugeRead struct {
	name string
	read func(t *testing.T) gaugeView
}

// gaugeReads are the three read paths of a served server: Stats, the
// OpMetrics sample a gateway merges, and an HTTP scrape of /metrics
// through obs.Handler with the server's refresh.
func gaugeReads(t *testing.T, srv *Server, client *Client) []gaugeRead {
	t.Helper()
	web := httptest.NewServer(obs.Handler(srv.Registry(), srv.RefreshGauges))
	t.Cleanup(web.Close)
	return []gaugeRead{
		{"Stats", func(t *testing.T) gaugeView {
			st, err := client.Stats()
			if err != nil {
				t.Fatal(err)
			}
			return gaugeView{Clock: st.VirtualClock, FlowsPlaced: int64(st.FlowsPlaced), Utilization: st.Utilization}
		}},
		{"OpMetrics", func(t *testing.T) gaugeView {
			resp := client.Do(Request{Op: OpMetrics})
			if !resp.OK {
				t.Fatalf("metrics: %s", resp.Error)
			}
			return sampleGauges(t, resp.Metrics)
		}},
		{"/metrics", func(t *testing.T) gaugeView { return scrapeGauges(t, web) }},
	}
}

// checkGauges compares a reading with the live world: an equal clock and
// flow count, a utilization == Graph.Utilization, and — where the read
// carries it — a link distribution equal to a recount, over every link.
func checkGauges(t *testing.T, srv *Server, what string, got, live gaugeView) {
	t.Helper()
	if got.LinkUtil == nil {
		live.LinkUtil = nil
	} else {
		var n int64
		for _, c := range got.LinkUtil {
			n += c
		}
		if links := int64(srv.planner.Network().Graph().NumLinks()); n != links {
			t.Errorf("%s: link distribution holds %d links, the fabric %d", what, n, links)
		}
	}
	if !reflect.DeepEqual(got, live) {
		t.Errorf("%s disagrees with the live world:\n read %+v\n live %+v", what, got, live)
	}
}

// checkEveryRead advances the world with no read in between, checks that
// the registry still holds what the previous read left — no round
// refreshes the gauges — and that the next read answers the live world;
// once per read path.
func checkEveryRead(t *testing.T, who string, srv *Server, reads []gaugeRead, advance func()) {
	t.Helper()
	last := sampleGauges(t, srv.Registry().Sample())
	for _, r := range reads {
		advance()
		live := liveGauges(t, srv)
		if live.Clock == last.Clock {
			t.Fatalf("%s before %s: the world did not advance (clock %v), so the read proves nothing", who, r.name, live.Clock)
		}
		if unread := sampleGauges(t, srv.Registry().Sample()); !reflect.DeepEqual(unread, last) {
			t.Errorf("%s before %s: the gauges moved without a read:\n now  %+v\n read %+v", who, r.name, unread, last)
		}
		checkGauges(t, srv, who+" "+r.name, r.read(t), live)
		last = sampleGauges(t, srv.Registry().Sample())
	}
}

// TestGaugesCurrentOnEveryRead: the virtual clock, utilization, flows
// placed and link-utilization gauges are computed when read, not pushed
// by rounds. After a batch drains with no read in between, Stats,
// OpMetrics and a /metrics scrape each show the live world — on a
// leader, on a recovered server before its first post-boot read, and on
// a follower.
func TestGaugesCurrentOnEveryRead(t *testing.T) {
	leaderDir := filepath.Join(t.TempDir(), "leader")
	crash := filepath.Join(t.TempDir(), "crash")
	leader, leaderClient, leaderAddr, ft := startReplLeader(t, leaderDir, -1)
	follower, followerClient := startReplFollower(t, filepath.Join(t.TempDir(), "follower"), leaderAddr, leader.journal.meta, -1, 0)
	work := walWorkload(ft, 21, 8, 4)

	// The leader runs each chunk's rounds before playChunk returns.
	next := 0
	checkEveryRead(t, "leader", leader, gaugeReads(t, leader, leaderClient), func() {
		playChunk(t, leaderClient, work[next])
		next++
	})

	// A recovered server's boot drain refreshed the gauges: the registry
	// already shows the world before anything reads it.
	copyDir(t, leaderDir, crash)
	recovered, recoveredClient, _, _ := startWALServer(t, crash, -1)
	live := liveGauges(t, recovered)
	checkGauges(t, recovered, "recovered, unread registry", sampleGauges(t, recovered.Registry().Sample()), live)
	for _, r := range gaugeReads(t, recovered, recoveredClient) {
		checkGauges(t, recovered, "recovered "+r.name, r.read(t), live)
	}

	// A follower folds a chunk's rounds only when a later record is
	// stamped past them, so each chunk here ends in a fault. Its world
	// advances between requests while it folds behind its acks, so the
	// wait reads the journal's sequence and its backlog on the loop, not
	// a gauge, until the fold has gone idle.
	checkEveryRead(t, "follower", follower, gaugeReads(t, follower, followerClient), func() {
		ch := work[next]
		if ch.fault == nil {
			ch.fault = &FaultSpec{Action: "install-timeout", Times: 1}
		}
		playChunk(t, leaderClient, ch)
		next++
		seq := leader.journal.met.LastSeq.Value()
		waitFor(t, 15*time.Second, "follower to fold the chunk", func() bool {
			idle := false
			if err := follower.onLoop(func() error {
				idle = follower.journal.seq >= seq && follower.journal.unfolded() == 0
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return idle
		})
	})
}
