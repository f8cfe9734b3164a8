package ctl

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"netupdate/internal/sched"
	"netupdate/internal/topology"
	"netupdate/internal/wal"
)

// The history tests pin the daemon's memory model: what it holds and what
// a read costs follow the live work and the done window, not the number
// of events that ever finished. Those that recover a log shrink the
// window through the unexported Config field, so a few dozen events wrap
// it.

// finishEvents pushes n one-flow events through srv in-process, in
// batches, and returns once all of them completed.
func finishEvents(t *testing.T, srv *Server, spec EventSpec, n int) {
	t.Helper()
	before, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	const batch = 256
	for sent := 0; sent < n; {
		specs := make([]EventSpec, min(batch, n-sent))
		for i := range specs {
			specs[i] = spec
		}
		verdicts, _, err := srv.SubmitBatch(specs)
		if err != nil {
			t.Fatalf("SubmitBatch: %v", err)
		}
		for _, v := range verdicts {
			if !v.OK {
				t.Fatalf("event rejected: %s", v.Error)
			}
		}
		sent += len(specs)
		waitFor(t, 30*time.Second, fmt.Sprintf("%d events to finish", sent), func() bool {
			st, err := srv.Stats()
			if err != nil {
				t.Fatal(err)
			}
			return st.EventsDone == before.EventsDone+sent
		})
	}
}

// TestStatsHistoryFree: a Stats read allocates the same and takes no
// longer (within 2x) after three windows of finished events as after 1 k,
// at the window every deployment runs with. Before the
// running totals the handler walked every finished event four times and
// sorted the placed flows to count them, so both grew with uptime.
func TestStatsHistoryFree(t *testing.T) {
	const window, few, many = doneWindow, 1000, 3 * doneWindow
	cfg, ft := testWorld(t, sched.FIFO{})
	srv := mustNew(t, cfg)
	t.Cleanup(func() { srv.Close() })
	spec := eventSpec(ft, 1, 1)

	read := func() {
		if resp := srv.Do(Request{Op: OpStats}); !resp.OK {
			t.Fatalf("stats: %s", resp.Error)
		}
	}
	// The fastest of many reads: robust against a noisy machine, and a
	// handler that walks history cannot be fast even once.
	fastest := func() time.Duration {
		best := time.Hour
		for i := 0; i < 300; i++ {
			t0 := time.Now()
			read()
			best = min(best, time.Since(t0))
		}
		return best
	}

	finishEvents(t, srv, spec, few)
	allocsFew, timeFew := testing.AllocsPerRun(200, read), fastest()
	finishEvents(t, srv, spec, many-few)
	allocsMany, timeMany := testing.AllocsPerRun(200, read), fastest()

	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.EventsDone != many || st.EventsRetained != window {
		t.Fatalf("%d events done, %d retained; want %d and %d", st.EventsDone, st.EventsRetained, many, window)
	}
	if allocsMany != allocsFew {
		t.Errorf("a Stats read allocates %.0f times after %d events, %.0f after %d", allocsMany, many, allocsFew, few)
	}
	if timeMany > 2*timeFew {
		t.Errorf("a Stats read takes %v after %d events, %v after %d: more than 2x", timeMany, many, timeFew, few)
	}
	t.Logf("Stats read: %v / %.0f allocs at %d events, %v / %.0f allocs at %d", timeFew, allocsFew, few, timeMany, allocsMany, many)
}

// checkpointState returns the state document of dir's current
// checkpoint, read through the daemon's own container decoder.
func checkpointState(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		t.Fatalf("no checkpoint: %v", err)
	}
	ck, err := wal.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	return ck.State
}

// TestCheckpointBoundedByLiveWork: once the done window is full a
// checkpoint stops growing, the event table holds the queue and nothing
// else, and a crash image (checkpoint + suffix) recovers to the
// uncrashed server's Stats and Results with the same events in reach.
func TestCheckpointBoundedByLiveWork(t *testing.T) {
	const window, perChunk = 48, 16
	dir := filepath.Join(t.TempDir(), "wal")
	srvA, clientA, _, ft := startWALServerWindow(t, dir, -1, window)
	chunks := walWorkload(ft, 41, 3*window/perChunk+1, perChunk)

	// One window of events, checkpoint; two more windows, checkpoint.
	var sizes []int
	var firstID int64
	for i, ch := range chunks[:len(chunks)-1] {
		playChunk(t, clientA, ch)
		if i == 0 {
			results, err := clientA.Results()
			if err != nil {
				t.Fatal(err)
			}
			firstID = results[0].EventID
		}
		if done := (i + 1) * perChunk; done == window || done == 3*window {
			if err := srvA.ForceCheckpoint(); err != nil {
				t.Fatalf("ForceCheckpoint: %v", err)
			}
			sizes = append(sizes, len(checkpointState(t, dir)))
		}
	}
	if len(sizes) != 2 || float64(sizes[1]) > 1.1*float64(sizes[0]) {
		t.Errorf("checkpoint documents: %d bytes after %d events, %d after %d; want the second within 10%% of the first",
			sizes[0], window, sizes[1], 3*window)
	}
	// A suffix behind the checkpoint, so the image recovers through both.
	playChunk(t, clientA, chunks[len(chunks)-1])

	st, err := srvA.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.EventsDone < 3*window || st.EventsRetained != window {
		t.Fatalf("%d events done, %d retained; want >= %d and %d", st.EventsDone, st.EventsRetained, 3*window, window)
	}
	// The Stats round trip through the state loop orders this read after
	// the loop's last write; the loop is idle now.
	if len(srvA.events) != st.EventsQueued {
		t.Errorf("event table holds %d events with %d queued", len(srvA.events), st.EventsQueued)
	}

	image := filepath.Join(t.TempDir(), "image")
	copyDir(t, dir, image)
	srvB, clientB, rec, _ := startWALServerWindow(t, image, -1, window)
	if rec.CheckpointSeq == 0 || rec.ReplayedRecords == 0 {
		t.Fatalf("recovery = %+v, want a checkpoint and a replayed suffix", *rec)
	}
	want := captureDigest(t, srvA, clientA)
	diffDigest(t, want, captureDigest(t, srvB, clientB))

	newest, oldestKept := want.Results[len(want.Results)-1], want.Results[0]
	for name, client := range map[string]*Client{"uncrashed": clientA, "recovered": clientB} {
		for _, kept := range []EventStatus{newest, oldestKept} {
			if got, err := client.Status(kept.EventID); err != nil || got != kept {
				t.Errorf("%s: status of retained event %d = %+v, %v; want %+v", name, kept.EventID, got, err, kept)
			}
		}
		if got, err := client.Status(firstID); err != nil || got.State != StateUnknown {
			t.Errorf("%s: status of the first event = %+v, %v; want unknown", name, got, err)
		}
	}
}

// legacyImage is a crash image the last build that checkpointed
// telemetry field by field wrote: legacyWorkload's first four chunks, a
// forced checkpoint, the fifth chunk as the log suffix behind it.
const legacyImage = "testdata/legacy_wal"

// legacyWorkload is the workload behind legacyImage: five chunks of six
// events, the second crowding the core so that Cost(U) is not zero.
func legacyWorkload(ft *topology.FatTree) []walChunk {
	chunks := walWorkload(ft, 17, 5, 6)
	crowdCore(ft, &chunks[1])
	return chunks
}

// runLegacyWorkload runs legacyWorkload on a server of this build the
// way legacyImage was written, and returns the digest it ends with and
// its WAL directory.
func runLegacyWorkload(t *testing.T) (runDigest, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	srv, client, _, ft := startWALServer(t, dir, -1)
	chunks := legacyWorkload(ft)
	for _, ch := range chunks[:4] {
		playChunk(t, client, ch)
	}
	if err := srv.ForceCheckpoint(); err != nil {
		t.Fatalf("ForceCheckpoint: %v", err)
	}
	playChunk(t, client, chunks[4])
	return captureDigest(t, srv, client), dir
}

// copyLegacyImage copies legacyImage to a fresh directory, passing its
// checkpoint through rewrite, and returns the directory.
func copyLegacyImage(t *testing.T, rewrite func(ckpt string) string) string {
	t.Helper()
	image := filepath.Join(t.TempDir(), "image")
	copyDir(t, legacyImage, image)
	path := filepath.Join(image, "checkpoint.json")
	ckpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(rewrite(string(ckpt))), 0o644); err != nil {
		t.Fatal(err)
	}
	return image
}

// TestRecoveryLoadsLegacyDoneList: a checkpoint written before the done
// window — every completed event under "done", the admission-order ID
// list under "order", no totals — recovers to the Stats and Results of
// the same workload run uncrashed, and into a smaller window to the same
// totals with the tail of the list retained. The reverse direction is
// refused: an older binary's container decoder does not read today's
// checkpoint.json, so it never reaches the document.
func TestRecoveryLoadsLegacyDoneList(t *testing.T) {
	want, dir := runLegacyWorkload(t)

	if _, err := parentLoadCheckpoint(t, dir); err == nil {
		t.Error("today's checkpoint reads under the older container decoder: an older binary would restore it with window-only totals")
	}

	// Rewrite the totals into the ID list an older build wrote.
	var legacy struct{ Done []struct{ Event int64 } }
	if err := json.Unmarshal(checkpointState(t, legacyImage), &legacy); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(legacy.Done))
	for i, r := range legacy.Done {
		ids[i] = fmt.Sprint(r.Event)
	}
	if len(ids) < 4*6 {
		t.Fatalf("checkpoint lists %d done events, want the %d checkpointed", len(ids), 4*6)
	}
	totals := regexp.MustCompile(`"order":\{[^{}]*\}`)
	rewrite := func(ckpt string) string {
		if n := len(totals.FindAllString(ckpt, -1)); n != 1 {
			t.Fatalf("checkpoint has %d totals objects, want 1", n)
		}
		return totals.ReplaceAllString(ckpt, `"order":[`+strings.Join(ids, ",")+`]`)
	}

	srvB, clientB, rec, _ := startWALServer(t, copyLegacyImage(t, rewrite), -1)
	if !rec.Recovered || rec.CheckpointSeq == 0 {
		t.Fatalf("recovery = %+v, want a restore from the checkpoint", *rec)
	}
	diffDigest(t, want, captureDigest(t, srvB, clientB))

	const window = 8
	srvC, clientC, _, _ := startWALServerWindow(t, copyLegacyImage(t, rewrite), -1, window)
	got := captureDigest(t, srvC, clientC)
	if len(want.Results) <= window {
		t.Fatalf("workload finished %d events, want more than the window of %d", len(want.Results), window)
	}
	if tail := want.Results[len(want.Results)-window:]; !reflect.DeepEqual(got.Results, tail) {
		t.Errorf("small window retains %+v, want the last %d of the list: %+v", got.Results, window, tail)
	}
	if got.Stats.EventsRetained != window {
		t.Errorf("small window retains %d events, want %d", got.Stats.EventsRetained, window)
	}
	got.Stats.EventsRetained = want.Stats.EventsRetained
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("totals diverged in the small window:\nwritten:   %+v\nrecovered: %+v", want.Stats, got.Stats)
	}
}
