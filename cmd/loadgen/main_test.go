package main

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/shard"
)

// runJSON executes the generator and decodes its -json summary.
func runJSON(t *testing.T, args ...string) summary {
	t.Helper()
	var out bytes.Buffer
	if code := run(append(args, "-json"), &out); code != 0 {
		t.Fatalf("run(%v) = %d\n%s", args, code, out.String())
	}
	var sum summary
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatalf("bad summary JSON: %v\n%s", err, out.String())
	}
	return sum
}

// TestBelowWatermarkNoRejections is the CI smoke contract: offered load
// far below the intake bound must be admitted without a single overload
// rejection.
func TestBelowWatermarkNoRejections(t *testing.T) {
	sum := runJSON(t,
		"-selfhost", "-rate", "300", "-duration", "500ms",
		"-batch", "8", "-conns", "2", "-seed", "7",
	)
	if sum.Offered == 0 || sum.Accepted == 0 {
		t.Fatalf("no load offered/accepted: %+v", sum)
	}
	if sum.Rejected != 0 || sum.RejectionRate != 0 {
		t.Errorf("rejections below watermark: %+v", sum)
	}
	if sum.Accepted != sum.Submitted {
		t.Errorf("accepted %d != submitted %d", sum.Accepted, sum.Submitted)
	}
	if sum.Server == nil {
		t.Fatal("summary missing server stats")
	}
	if sum.Server.IngestRejected != 0 || sum.Server.IngestAccepted != sum.Accepted {
		t.Errorf("server ingest counters disagree: %+v", sum.Server)
	}
}

// TestTinyWatermarkRejects drives hard load into a near-zero intake
// bound: backpressure must show up as overload rejections, and they must
// be counted consistently on both sides of the wire.
func TestTinyWatermarkRejects(t *testing.T) {
	sum := runJSON(t,
		"-selfhost", "-rate", "2000", "-duration", "500ms",
		"-batch", "32", "-conns", "2", "-watermark", "2", "-seed", "7",
	)
	if sum.Rejected == 0 {
		t.Fatalf("no rejections despite watermark 2: %+v", sum)
	}
	if sum.RejectionRate <= 0 || sum.RejectionRate > 1 {
		t.Errorf("rejection rate = %v, want (0,1]", sum.RejectionRate)
	}
	if sum.Server == nil {
		t.Fatal("summary missing server stats")
	}
	if sum.Server.IngestRejected < sum.Rejected {
		t.Errorf("server saw %d rejections, client counted %d",
			sum.Server.IngestRejected, sum.Rejected)
	}
	if sum.Server.IngestWatermark != 2 {
		t.Errorf("server watermark = %d, want 2", sum.Server.IngestWatermark)
	}
}

// TestRetriesRecoverRejections keeps the watermark small but lets the
// client back off and resubmit: retried admissions must register on the
// server.
func TestRetriesRecoverRejections(t *testing.T) {
	sum := runJSON(t,
		"-selfhost", "-rate", "1500", "-duration", "400ms",
		"-batch", "16", "-conns", "2", "-watermark", "4",
		"-retries", "4", "-seed", "7",
	)
	if sum.Accepted == 0 {
		t.Fatalf("nothing accepted: %+v", sum)
	}
	if sum.Server == nil {
		t.Fatal("summary missing server stats")
	}
	// Under this load some batch must have been rejected then readmitted.
	if sum.Server.IngestRetried == 0 {
		t.Errorf("no retried admissions recorded: %+v", sum.Server)
	}
}

// TestServerGoneCountsFailed stops the controller mid-run. Every event
// submitted after that is in a request that failed as a whole: it must
// count once, as failed, and never as an overload rejection, in every
// worker configuration.
func TestServerGoneCountsFailed(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"v2 pipelined", nil},
		{"v2 synchronous", []string{"-pipeline", "0"}},
		{"v2 retries", []string{"-retries", "4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stop, addr, err := startSelfhost(shard.WorldConfig{
				K: 4, Util: 0.3, Scheduler: "p-lmtf", Alpha: 4, Seed: 1,
				Watermark: ctl.DefaultHighWatermark,
			})
			if err != nil {
				t.Fatal(err)
			}
			var once sync.Once
			stopOnce := func() {
				once.Do(func() {
					if err := stop(); err != nil {
						t.Errorf("stop: %v", err)
					}
				})
			}
			defer stopOnce()
			timer := time.AfterFunc(300*time.Millisecond, stopOnce)
			defer timer.Stop()

			sum := runJSON(t, append([]string{
				"-addr", addr, "-rate", "300", "-duration", "1s",
				"-batch", "4", "-conns", "2", "-seed", "7",
			}, tc.args...)...)
			if sum.Accepted == 0 || sum.Failed == 0 {
				t.Fatalf("want events accepted before the stop and failed after it: %+v", sum)
			}
			if sum.Rejected != 0 || sum.Invalid != 0 {
				t.Errorf("failed requests counted as rejected or invalid: %+v", sum)
			}
			if sum.Accepted+sum.Failed != sum.Submitted {
				t.Errorf("accepted %d + failed %d != submitted %d", sum.Accepted, sum.Failed, sum.Submitted)
			}
		})
	}
}

func TestFlagValidation(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{},                          // neither -addr nor -selfhost
		{"-addr", "x", "-selfhost"}, // both
		{"-selfhost", "-rate", "0"}, // no load
		{"-selfhost", "-min-flows", "3", "-max-flows", "2"},
		// Configuration errors the selfhost world refuses.
		{"-selfhost", "-k", "4", "-shards", "2", "-cross-pool-frac", "NaN"},
		{"-selfhost", "-scheduler", "bogus"},
	} {
		if code := run(args, &out); code != 2 {
			t.Errorf("run(%v) = %d, want usage error", args, code)
		}
	}
}
