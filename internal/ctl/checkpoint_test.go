package ctl

import (
	"encoding/json"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"netupdate/internal/metrics"
	"netupdate/internal/obs"
	"netupdate/internal/sim"
	"netupdate/internal/snapshot"
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

// TestParentDecoderRefusesCheckpoint: the older decoder reads its own
// documents but fails on today's, at the telemetry key, so an older
// daemon exits instead of serving Stats over the done window alone.
func TestParentDecoderRefusesCheckpoint(t *testing.T) {
	var parent parentCheckpointDoc
	if err := json.Unmarshal(checkpointState(t, legacyImage), &parent); err != nil || !parent.Totals.present {
		t.Fatalf("the parent's shape does not read legacyImage: %v (totals present %v)", err, parent.Totals.present)
	}

	_, dir := runLegacyWorkload(t)
	err := json.Unmarshal(checkpointState(t, dir), new(parentCheckpointDoc))
	if err == nil || !strings.Contains(err.Error(), "cannot unmarshal array into Go struct field parentCheckpointDoc.sim") {
		t.Errorf("the parent's shape decodes today's checkpoint with error %v, want a refused array under sim", err)
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
