package ctl

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netupdate/internal/obs"
	"netupdate/internal/wal"
)

// TestReplHubAckAfterDetach pins where the synced-follower count lives:
// once, in the gauge, moved only for a registered session. An ack can
// sit in the ack reader's buffer across the session's detach (outbox
// overflow or gate timeout on a follower still catching up); counting it
// left repl_synced at 1 with nobody registered, and every later commit
// arming the gate's timer for nothing.
func TestReplHubAckAfterDetach(t *testing.T) {
	met := obs.NewReplMetrics(obs.NewRegistry())
	hub := newReplHub(met, ReplicationConfig{})
	session := func() *replFollower {
		c, peer := net.Pipe()
		t.Cleanup(func() { _ = peer.Close() })
		return newReplFollower(c)
	}
	gauges := func(when string, followers, synced int64) {
		t.Helper()
		if f, s := met.Followers.Value(), met.SyncedFollowers.Value(); f != followers || s != synced {
			t.Fatalf("%s: %d followers, %d synced; want %d, %d", when, f, s, followers, synced)
		}
	}
	const attachPoint = 5

	// The live path: registered behind the attach point, synced by the
	// ack that reaches it, uncounted by detach.
	f := session()
	hub.register(f, 0, attachPoint)
	gauges("registered behind", 1, 0)
	hub.ack(f, attachPoint-1)
	gauges("acked short of the attach point", 1, 0)
	hub.ack(f, attachPoint)
	gauges("acked through the attach point", 1, 1)
	hub.detach(f)
	gauges("detached", 0, 0)

	// The stale ack: the session is gone before its ack is read.
	f = session()
	hub.register(f, 0, attachPoint)
	hub.detach(f)
	hub.ack(f, attachPoint)
	gauges("acked after detach", 0, 0)
	hub.gate(attachPoint + 1) // nobody synced: must not wait out the ack timeout
}

// TestFailStopOnDurableWriteFailure drives each kind of write into a
// journal whose segment file was closed under the writer and checks the
// one rule: the failure reaches the loop's fail-stop function exactly
// once, carrying the append / commit / rotation error, and the caller is
// told an error — never OK. In production that function panics; here it
// records the error and shuts the server down.
func TestFailStopOnDurableWriteFailure(t *testing.T) {
	spec := func(hosts []int) EventSpec {
		return EventSpec{Kind: "fail-stop", Flows: []FlowSpec{{Src: hosts[0], Dst: hosts[1], DemandBps: 1e6}}}
	}
	cases := []struct {
		name   string
		policy wal.SyncPolicy
		write  func(srv *Server, c *Client, hosts []int) error
		want   string
	}{
		{"submit batch fails at commit", wal.SyncGroup, func(_ *Server, c *Client, hosts []int) error {
			verdicts, _, err := c.SubmitBatch([]EventSpec{spec(hosts), spec(hosts)})
			if err == nil && len(verdicts) > 0 {
				t.Errorf("SubmitBatch acknowledged %+v", verdicts)
			}
			return err
		}, "wal commit"},
		{"fault fails at append", wal.SyncAlways, func(_ *Server, c *Client, _ []int) error {
			_, err := c.Fault(FaultSpec{Action: "install-timeout", Times: 1})
			return err
		}, "wal append"},
		{"forced checkpoint fails at rotation", wal.SyncGroup, func(srv *Server, _ *Client, _ []int) error {
			return srv.ForceCheckpoint()
		}, "checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			srv, client, _, ft := startWALServer(t, dir, -1, wal.WithSync(tc.policy))
			var hosts []int
			for _, h := range ft.Hosts()[:2] {
				hosts = append(hosts, int(h))
			}
			// One record past the segment's base, so a rotation is real.
			id, err := client.Submit(spec(hosts))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := client.WaitDone(id, 5*time.Second); err != nil {
				t.Fatal(err)
			}

			stops := make(chan error, 8)
			down := make(chan struct{})
			err = srv.onLoop(func() error {
				srv.failStop = func(err error) {
					stops <- err
					if len(stops) == 1 {
						go func() { _ = srv.Close(); close(down) }()
					}
				}
				return srv.journal.w.Close()
			})
			if err != nil {
				t.Fatalf("closing the segment under the writer: %v", err)
			}

			if err := tc.write(srv, client, hosts); err == nil {
				t.Error("the write was acknowledged after its durable write failed")
			}
			select {
			case <-down:
			case <-time.After(10 * time.Second):
				t.Fatal("fail-stop was never called")
			}
			close(stops)
			var got []error
			for err := range stops {
				got = append(got, err)
			}
			if len(got) != 1 {
				t.Fatalf("fail-stop called %d times (%v), want once", len(got), got)
			}
			if !strings.Contains(got[0].Error(), tc.want) || !errors.Is(got[0], os.ErrClosed) {
				t.Errorf("fail-stop got %q, want the %q error wrapping os.ErrClosed", got[0], tc.want)
			}
		})
	}
}
