package wal

import (
	"errors"
	"reflect"
	"testing"

	"netupdate/internal/obs"
)

// testRound is a round record that crosses every branch of the round
// body: candidates, a rejected and a committed co-schedule check, a
// failed flow, a migration and a split.
func testRound() *Record {
	return &Record{Type: TypeRound, ID: ID{VT: 7500, Seq: 12}, Rounds: 6, Round: &RoundRecord{
		DecisionEvals: 41, Probes: 5, SchedulerDraws: 17, SelectorDraws: 1 << 33,
		Candidates: []obs.ProbeOutcome{
			{Event: 8, CostBps: 3e8, Evals: 12, Admittable: 2},
			{Event: 9, CostBps: 0, Evals: 4, Admittable: 1},
		},
		CoScheduled: []obs.CoSchedule{
			{Probe: obs.ProbeOutcome{Event: 9, Evals: 4, Admittable: 0}, AloneAdmittable: 1},
			{Probe: obs.ProbeOutcome{Event: 11, CostBps: 5e7, Evals: 6, Admittable: 1}, AloneAdmittable: 1, Committed: true},
		},
		Lanes: []LanePlan{
			{Event: 8, Base: 300, Next: 304, Flows: []FlowPlan{
				{Spec: 0, ID: 300, Path: []int32{4, 17, 33, 6}, CostBps: 3e8, Evals: 9, Steps: []StepPlan{
					{Victim: 12, From: []int32{4, 18, 34, 6}, To: []int32{5, 19, 35, 7}},
					{Victim: 140, From: []int32{4, 16, 32, 6}, To: []int32{4, 18, 34, 6}, Split: true,
						To2: []int32{5, 20, 36, 7}, DemandsBps: [2]int64{6e7, 4e7}, IDs: [2]int64{301, 302}},
				}},
				{Spec: 1, ID: 303, Failed: true, Evals: 3},
			}},
			{Event: 11, Base: 304, Next: 305, Flows: []FlowPlan{
				{Spec: 0, ID: 304, Path: []int32{2, 9}, CostBps: 5e7, Evals: 6},
			}},
		},
	}}
}

// TestRoundRecordRoundTrip: a round record decodes to itself and encodes
// again to the same bytes.
func TestRoundRecordRoundTrip(t *testing.T) {
	rec := testRound()
	frame, err := AppendFrame(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePayload(frame[frameHeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip:\n got  %+v\n want %+v", got.Round, rec.Round)
	}
	again, err := AppendFrame(nil, got)
	if err != nil || string(again) != string(frame) {
		t.Fatalf("encode of the decoded record gives other bytes (%v)", err)
	}
}

// TestRoundRecordCorrupt: every truncation of a round payload and an
// overlong varint decode to ErrCorrupt, never to a record or a panic.
func TestRoundRecordCorrupt(t *testing.T) {
	frame, err := AppendFrame(nil, testRound())
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[frameHeaderSize:]
	for n := range len(payload) {
		if rec, err := DecodePayload(payload[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("payload cut to %d of %d bytes: %+v, %v; want ErrCorrupt", n, len(payload), rec, err)
		}
	}
	// The decision evals (41) padded to two bytes.
	overlong := append([]byte(nil), payload[:recHeaderSize]...)
	overlong = append(overlong, 41|0x80, 0)
	overlong = append(overlong, payload[recHeaderSize+1:]...)
	if _, err := DecodePayload(overlong); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overlong varint: %v, want ErrCorrupt", err)
	}
	if _, err := DecodePayload(append(payload[:len(payload):len(payload)], 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: %v, want ErrCorrupt", err)
	}
}
