package ctl

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"netupdate/internal/metrics"
	"netupdate/internal/obs"
	"netupdate/internal/sched"
	"netupdate/internal/sim"
	"netupdate/internal/snapshot"
	"netupdate/internal/topology"
	"netupdate/internal/wal"
)

// TestRestorableMetrics: the checkpoint carries exactly the metrics that
// are a fold of the admitted history — the engine's counters and its ECT
// and queuing-delay histograms, the ingest outcomes and batch sizes.
// Gauges, the probe count (it travels in the engine state), codec frames,
// WAL, replication and wall-clock latency stay with the process.
func TestRestorableMetrics(t *testing.T) {
	want := []string{
		"netupdate_cost_bps_total",
		"netupdate_ect_ns",
		"netupdate_events_done_total",
		"netupdate_faults_injected_total",
		"netupdate_flows_admitted_total",
		"netupdate_flows_disrupted_total",
		"netupdate_flows_failed_total",
		"netupdate_ingest_accepted_total",
		"netupdate_ingest_batch_size",
		"netupdate_ingest_batches_total",
		"netupdate_ingest_rejected_total",
		"netupdate_ingest_retried_total",
		"netupdate_install_retries_total",
		"netupdate_install_rollbacks_total",
		"netupdate_plan_time_ns_total",
		"netupdate_queuing_delay_ns",
		"netupdate_repair_events_total",
		"netupdate_rounds_total",
	}
	srv, _, _, _ := startWALServer(t, filepath.Join(t.TempDir(), "wal"), -1)
	var got []string
	for _, m := range srv.Registry().Restorable() {
		got = append(got, m.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("restorable metrics:\n got  %q\n want %q", got, want)
	}
}

// TestRecoveryLoadsParentCheckpoint: legacyImage, unmodified, recovers to
// the digest — Stats, Results, snapshot and registry — of the same
// workload run uncrashed on this build.
func TestRecoveryLoadsParentCheckpoint(t *testing.T) {
	want, _ := runLegacyWorkload(t)
	srv, client, rec, _ := startWALServer(t, copyLegacyImage(t, func(ckpt string) string { return ckpt }), -1)
	if !rec.Recovered || rec.CheckpointSeq == 0 || rec.ReplayedRecords == 0 {
		t.Fatalf("recovery = %+v, want a checkpoint and a replayed suffix", *rec)
	}
	diffDigest(t, want, captureDigest(t, srv, client))
}

// parentCheckpointDoc is the checkpoint document as the last build that
// copied telemetry field by field decoded it: names changed, shape kept.
type parentCheckpointDoc struct {
	NextID int64 `json:"next_id"`

	Queue  []queuedEvent         `json:"queue,omitempty"`
	Totals parentTotals          `json:"order"`
	Done   []metrics.EventRecord `json:"done,omitempty"`

	DecisionEvals    int   `json:"decision_evals"`
	PlanTimeNs       int64 `json:"plan_time_ns"`
	MakespanNs       int64 `json:"makespan_ns"`
	FaultsInjected   int   `json:"faults_injected"`
	RepairEvents     int   `json:"repair_events"`
	FlowsDisrupted   int   `json:"flows_disrupted"`
	InstallRetries   int   `json:"install_retries"`
	InstallRollbacks int   `json:"install_rollbacks"`

	Engine  sim.EngineState    `json:"engine"`
	Network *snapshot.Snapshot `json:"network"`
	Ingest  struct {
		Accepted  int64           `json:"accepted"`
		Rejected  int64           `json:"rejected"`
		Retried   int64           `json:"retried"`
		Batches   int64           `json:"batches"`
		BatchSize parentHistogram `json:"batch_size"`
	} `json:"ingest"`
	Sim parentSimMetrics `json:"sim"`
	RNG rngState         `json:"rng"`
}

type parentSimMetrics struct {
	Rounds        int64 `json:"rounds"`
	EventsDone    int64 `json:"events_done"`
	FlowsAdmitted int64 `json:"flows_admitted"`
	FlowsFailed   int64 `json:"flows_failed"`

	FaultsInjected   int64 `json:"faults_injected"`
	RepairEvents     int64 `json:"repair_events"`
	FlowsDisrupted   int64 `json:"flows_disrupted"`
	InstallRetries   int64 `json:"install_retries"`
	InstallRollbacks int64 `json:"install_rollbacks"`

	ECT          parentHistogram `json:"ect"`
	QueuingDelay parentHistogram `json:"queuing_delay"`
}

type parentHistogram struct {
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
	Max    int64   `json:"max,omitempty"`
}

// parentTotals decodes "order" as the parent did: totals when it holds an
// object, nothing (a pre-window ID list, or no key) otherwise.
type parentTotals struct {
	metrics.Totals
	present bool
}

func (t *parentTotals) UnmarshalJSON(data []byte) error {
	if len(data) == 0 || data[0] != '{' {
		return nil
	}
	t.present = true
	return json.Unmarshal(data, &t.Totals)
}

// parentCheckpoint is wal.Checkpoint as the builds that wrote JSON
// checkpoints declared it.
type parentCheckpoint struct {
	Format int             `json:"format"`
	ID     wal.ID          `json:"id"`
	Rounds int64           `json:"rounds"`
	State  json.RawMessage `json:"state"`
}

// parentLoadCheckpoint reads dir's checkpoint.json as those builds'
// wal.Open did, before it looked at any segment: one JSON document, then
// its format.
func parentLoadCheckpoint(t *testing.T, dir string) (*parentCheckpoint, error) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		t.Fatalf("no checkpoint: %v", err)
	}
	ck := &parentCheckpoint{}
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, fmt.Errorf("%w: bad checkpoint: %v", wal.ErrCorrupt, err)
	}
	if ck.Format != wal.FormatVersion {
		return nil, fmt.Errorf("%w: checkpoint format %d, want %d", wal.ErrCorrupt, ck.Format, wal.FormatVersion)
	}
	return ck, nil
}

// TestParentDecoderRefusesCheckpoint: the older container decoder reads
// its own checkpoints — and the older document shape reads legacyImage's
// state — but refuses today's checkpoint.json outright, so an older
// daemon exits at wal.Open before it folds anything, instead of
// restoring a document it cannot read.
func TestParentDecoderRefusesCheckpoint(t *testing.T) {
	ck, err := parentLoadCheckpoint(t, legacyImage)
	if err != nil {
		t.Fatalf("the parent's container decoder does not read legacyImage: %v", err)
	}
	var parent parentCheckpointDoc
	if err := json.Unmarshal(ck.State, &parent); err != nil || !parent.Totals.present {
		t.Fatalf("the parent's shape does not read legacyImage: %v (totals present %v)", err, parent.Totals.present)
	}

	_, dir := runLegacyWorkload(t)
	_, err = parentLoadCheckpoint(t, dir)
	if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), "bad checkpoint") {
		t.Errorf("the parent's container decoder reads today's checkpoint with error %v, want a refused bad checkpoint", err)
	}
}

// TestLegacySampleReadsEveryKey: each restorable metric is read from the
// key an older document kept it under — none is left at zero when every
// key holds a number, including the ones legacyImage leaves at zero.
func TestLegacySampleReadsEveryKey(t *testing.T) {
	hist := `{"counts":[0,2],"sum":3,"count":2,"max":2}`
	state := `{"order":{"cost_bps":7},"plan_time_ns":5,
		"sim":{"rounds":1,"events_done":2,"flows_admitted":3,"flows_failed":4,"faults_injected":5,"repair_events":6,
			"flows_disrupted":7,"install_retries":8,"install_rollbacks":9,"ect":` + hist + `,"queuing_delay":` + hist + `},
		"ingest":{"accepted":1,"rejected":2,"retried":3,"batches":4,"batch_size":` + hist + `}}`
	reg := obs.NewRegistry()
	obs.NewSimMetrics(reg)
	obs.NewIngestMetrics(reg)
	s, err := legacySample([]byte(state), nil, reg.Restorable())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range s {
		if m.Int == 0 && (m.Hist == nil || m.Hist.Count == 0) {
			t.Errorf("%s read as zero", m.Name)
		}
	}
	if err := reg.Restore(s); err != nil {
		t.Errorf("Restore refused the translated reading: %v", err)
	}
}

// TestCheckpointStateRoundTrip: the gob state decodes to exactly the
// document it was encoded from, and encoding it again gives the same
// bytes.
func TestCheckpointStateRoundTrip(t *testing.T) {
	_, dir := runLegacyWorkload(t)
	srv, _, _, _ := startWALServer(t, dir, -1)
	var doc *checkpointDoc
	var state []byte
	if err := srv.onLoop(func() (err error) {
		doc = srv.buildCheckpoint()
		state, err = srv.encodeCheckpoint()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(doc.Done) == 0 || len(doc.Network.Flows) == 0 {
		t.Fatalf("document holds %d done records and %d flows, want both", len(doc.Done), len(doc.Network.Flows))
	}
	var got checkpointDoc
	if err := gob.NewDecoder(bytes.NewReader(state)).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, doc) {
		t.Errorf("gob round trip changed the document:\n got  %+v\n want %+v", got, *doc)
	}
	var again bytes.Buffer
	if err := gob.NewEncoder(&again).Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), state) {
		t.Error("encoding the decoded document gives other bytes")
	}
}

// TestRecoveryLoadsJSONCheckpoint: a checkpoint of today's document
// written as the JSON the builds before the binary container wrote
// recovers to the digest of the same workload run uncrashed.
func TestRecoveryLoadsJSONCheckpoint(t *testing.T) {
	want, dir := runLegacyWorkload(t)
	path := filepath.Join(dir, "checkpoint.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := wal.DecodeCheckpoint(data)
	if err != nil || ck.Format != wal.CheckpointFormat {
		t.Fatalf("checkpoint format %d, %v; want %d", ck.Format, err, wal.CheckpointFormat)
	}
	var doc checkpointDoc
	if err := gob.NewDecoder(bytes.NewReader(ck.State)).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	state, err := json.Marshal(&doc)
	if err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(parentCheckpoint{Format: wal.FormatVersion, ID: ck.ID, Rounds: ck.Rounds, State: state})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parentLoadCheckpoint(t, dir); err != nil {
		t.Fatalf("the rewritten checkpoint is not the older container: %v", err)
	}
	srv, client, rec, _ := startWALServer(t, dir, -1)
	if !rec.Recovered || rec.CheckpointSeq != ck.ID.Seq || rec.ReplayedRecords == 0 {
		t.Fatalf("recovery = %+v, want the checkpoint at seq %d and a replayed suffix", *rec, ck.ID.Seq)
	}
	diffDigest(t, want, captureDigest(t, srv, client))
}

// benchCheckpointWorld builds the durable_ingest world: k = 8, 30 %
// background utilization, unfilled when a checkpoint restores the flows.
func benchCheckpointWorld(b *testing.B, fill bool) (Config, []topology.NodeID) {
	b.Helper()
	w, err := sim.Genesis{K: 8, Seed: 1}.Fabric()
	if err != nil {
		b.Fatal(err)
	}
	if fill {
		if err := w.Fill(w.FatTree.Hosts(), 1, 0.3); err != nil {
			b.Fatal(err)
		}
	}
	return Config{Planner: w.Planner, Scheduler: sched.FIFO{}, Sim: sim.Config{InstallTime: time.Millisecond}}, w.FatTree.Hosts()
}

// benchCheckpointServer runs a durable_ingest-shaped server until its
// done window is full: one to four flows of 5 Mbps and 100 KB between
// uniform host pairs per event.
func benchCheckpointServer(b *testing.B) *Server {
	b.Helper()
	log, err := wal.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cfg, hosts := benchCheckpointWorld(b, true)
	cfg.WAL = &WALConfig{Log: log, CheckpointEvery: -1}
	srv, _, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	rng := rand.New(rand.NewSource(1))
	specs := make([]EventSpec, doneWindow+doneWindow/4)
	for i := range specs {
		flows := make([]FlowSpec, 1+rng.Intn(4))
		for j := range flows {
			src, dst := rng.Intn(len(hosts)), rng.Intn(len(hosts)-1)
			if dst >= src {
				dst++
			}
			flows[j] = FlowSpec{Src: int(hosts[src]), Dst: int(hosts[dst]), DemandBps: 5e6, SizeBytes: 100e3}
		}
		specs[i] = EventSpec{Kind: "bench", Flows: flows}
	}
	deadline := time.Now().Add(time.Minute)
	for sent := 0; sent < len(specs); {
		verdicts, _, err := srv.SubmitBatch(specs[sent:min(sent+256, len(specs))])
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range verdicts {
			if !v.OK {
				b.Fatalf("event rejected: %s", v.Error)
			}
		}
		sent += len(verdicts)
		for {
			st, err := srv.Stats()
			if err != nil {
				b.Fatal(err)
			}
			if st.EventsDone == sent {
				break
			}
			if time.Now().After(deadline) {
				b.Fatalf("%d of %d events done after a minute", st.EventsDone, sent)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return srv
}

// writeBenchCheckpoint encodes srv's state and its container, the bytes
// a checkpoint writes to checkpoint.json.
func writeBenchCheckpoint(srv *Server, dst []byte) ([]byte, error) {
	err := srv.onLoop(func() error {
		state, err := srv.encodeCheckpoint()
		if err == nil {
			dst, err = wal.AppendCheckpoint(dst[:0], &wal.Checkpoint{Format: wal.CheckpointFormat,
				ID: wal.ID{VT: int64(srv.engine.Clock()), Seq: 1}, Rounds: srv.engine.Rounds(), State: state})
		}
		return err
	})
	return dst, err
}

// BenchmarkCheckpointWrite: what the state loop pays to freeze a
// durable_ingest-shaped server with a full done window into the bytes of
// checkpoint.json (file write and fsync excluded).
func BenchmarkCheckpointWrite(b *testing.B) {
	srv := benchCheckpointServer(b)
	var data []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if data, err = writeBenchCheckpoint(srv, data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data))/1e6, "MB")
}

// BenchmarkCheckpointRestore: what recovery pays to read that
// checkpoint.json back into a freshly built server (building the world
// excluded).
func BenchmarkCheckpointRestore(b *testing.B) {
	data, err := writeBenchCheckpoint(benchCheckpointServer(b), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg, _ := benchCheckpointWorld(b, false)
		fresh, _, err := build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ck, err := wal.DecodeCheckpoint(data)
		if err != nil {
			b.Fatal(err)
		}
		if err := fresh.restoreCheckpoint(ck); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data))/1e6, "MB")
}
