// Package ctl is the update-controller service: a framed binary
// protocol over TCP, a server that owns live network state and schedules
// submitted update events with any sched.Scheduler, and a matching client.
//
// The server is the deployment shape of the paper's system: operators,
// applications and monitoring submit update events as they happen; the
// controller queues them, probes costs, and executes them under
// LMTF/P-LMTF semantics, exposing per-event status and the scheduling
// metrics of Section V.
package ctl

import (
	"errors"
	"fmt"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/obs"
	"netupdate/internal/snapshot"
)

// Op names a protocol operation.
type Op string

// Protocol operations.
const (
	// OpPing checks liveness.
	OpPing Op = "ping"
	// OpSubmit enqueues an update event; the response carries its ID.
	OpSubmit Op = "submit"
	// OpSubmitBatch enqueues many events in one request; the response
	// carries one verdict per event, in submission order.
	OpSubmitBatch Op = "submit-batch"
	// OpStatus reports one event's scheduling state.
	OpStatus Op = "status"
	// OpResults lists all completed events with their metrics.
	OpResults Op = "results"
	// OpStats reports network and scheduler aggregates: the Stats view
	// decoded from the server's metric registry.
	OpStats Op = "stats"
	// OpMetrics answers with the raw registry sample behind OpStats, each
	// metric with its merge rule. A shard gateway calls it on every engine
	// and merges the answers; clients keep reading Stats.
	OpMetrics Op = "metrics"
	// OpSnapshot returns the controller's full network state as a
	// snapshot document (topology, flows, placements).
	OpSnapshot Op = "snapshot"
	// OpTrace returns the most recent scheduling-trace records from the
	// server's ring buffer (arrivals, per-round decisions, event spans).
	OpTrace Op = "trace"
	// OpFault injects a fault (link/switch failure or recovery, install
	// timeout) into the running schedule; the response reports what the
	// injection disrupted.
	OpFault Op = "fault"
	// OpReplStatus reports the server's replication state: role, term,
	// registered followers and their lag (on a follower: its own lag).
	OpReplStatus Op = "repl-status"
	// OpReplPromote promotes a follower: it drains its cascade to
	// quiescence, bumps and persists the term, and flips read-write.
	// Rejected on anything but a follower.
	OpReplPromote Op = "repl-promote"
)

// knownOps is the set of valid protocol operations.
var knownOps = map[Op]bool{
	OpPing: true, OpSubmit: true, OpSubmitBatch: true, OpStatus: true,
	OpResults: true, OpStats: true, OpMetrics: true, OpSnapshot: true, OpTrace: true,
	OpFault: true, OpReplStatus: true, OpReplPromote: true,
}

// FlowSpec is one flow of a submitted event. Host indices refer to the
// server's topology (NodeIDs of hosts).
type FlowSpec struct {
	Src       int   `json:"src"`
	Dst       int   `json:"dst"`
	DemandBps int64 `json:"demand_bps"`
	SizeBytes int64 `json:"size_bytes,omitempty"`
}

// EventSpec is a submitted update event.
type EventSpec struct {
	Kind  string     `json:"kind,omitempty"`
	Flows []FlowSpec `json:"flows"`
}

// SpecOf is the spec that submits e: its kind and flows (the server
// assigns the ID).
func SpecOf(e *core.Event) EventSpec {
	spec := EventSpec{Kind: e.Kind, Flows: make([]FlowSpec, len(e.Specs))}
	for i, s := range e.Specs {
		spec.Flows[i] = FlowSpec{Src: int(s.Src), Dst: int(s.Dst), DemandBps: int64(s.Demand), SizeBytes: s.Size}
	}
	return spec
}

// FaultSpec is a fault injection requested over the wire. Action is one
// of the internal/fault action names ("link-down", "link-up",
// "switch-down", "switch-up", "install-timeout").
type FaultSpec struct {
	Action string `json:"action"`
	// Link targets link-down/link-up; Node targets switch-down/switch-up.
	Link int `json:"link,omitempty"`
	Node int `json:"node,omitempty"`
	// Event and Times parameterize install-timeout: which event's
	// installs fail (0 = next executed) and how many times.
	Event int64 `json:"event,omitempty"`
	Times int   `json:"times,omitempty"`
}

// FaultResult reports what an injected fault did.
type FaultResult struct {
	Action        string `json:"action"`
	LinksChanged  int    `json:"links_changed"`
	FlowsAffected int    `json:"flows_affected"`
	// RepairEventID is the update event minted to re-admit disrupted
	// flows (0 when nothing was disrupted).
	RepairEventID int64 `json:"repair_event_id,omitempty"`
	// LinksDown is the number of failed links after the injection.
	LinksDown int `json:"links_down"`
}

// Request is one client->server message. The protocol version lives in
// the frame header only; a "v" key in a JSON body is ignored like any
// other unknown field.
type Request struct {
	Op Op `json:"op"`
	// Event accompanies OpSubmit.
	Event *EventSpec `json:"event,omitempty"`
	// Events accompanies OpSubmitBatch, in submission order.
	Events []EventSpec `json:"events,omitempty"`
	// Retry marks a submit/submit-batch as a backoff resubmission after
	// an overload rejection, so the server can count retried admissions.
	Retry bool `json:"retry,omitempty"`
	// EventID accompanies OpStatus.
	EventID int64 `json:"event_id,omitempty"`
	// N accompanies OpTrace: how many trailing records to return
	// (<= 0 means all retained).
	N int `json:"n,omitempty"`
	// Fault accompanies OpFault.
	Fault *FaultSpec `json:"fault,omitempty"`
	// Span is the optional latency span context of a submit/submit-batch
	// request: the submitter's 16-bit origin identity and its wall clock
	// at submit. Old servers reject the flag-gated binary prefix, so
	// clients discover support via the "span-ctx" feature in the ping
	// response before attaching it.
	Span *obs.SpanContext `json:"span,omitempty"`
	// ShardInfo asks the server to encode each verdict's owning shard in
	// the dense verdict frame (flag-gated, see reqFlagShard). It never
	// appears in a JSON body — JSON verdicts are self-describing through
	// the omitempty shard field. Clients enable it only after the ping
	// response advertised FeatureShardVerdicts.
	ShardInfo bool `json:"-"`
}

// checkRequestShape applies the op and payload checks every frame kind
// shares.
func checkRequestShape(req *Request) error {
	if !knownOps[req.Op] {
		return fmt.Errorf("%w: unknown op %q", ErrBadRequest, req.Op)
	}
	switch req.Op {
	case OpSubmit:
		if req.Event == nil {
			return fmt.Errorf("%w: submit without event", ErrBadRequest)
		}
	case OpSubmitBatch:
		if len(req.Events) == 0 {
			return fmt.Errorf("%w: submit-batch without events", ErrBadRequest)
		}
	case OpFault:
		if req.Fault == nil {
			return fmt.Errorf("%w: fault without spec", ErrBadRequest)
		}
		if req.Fault.Times < 0 || req.Fault.Event < 0 {
			return fmt.Errorf("%w: negative fault parameters", ErrBadRequest)
		}
	}
	return nil
}

// EventState is an event's lifecycle stage.
type EventState string

// Event lifecycle states.
const (
	StateQueued  EventState = "queued"
	StateDone    EventState = "done"
	StateUnknown EventState = "unknown"
)

// EventStatus reports one event's progress and, once done, its metrics.
type EventStatus struct {
	EventID int64      `json:"event_id"`
	State   EventState `json:"state"`
	Kind    string     `json:"kind,omitempty"`
	Flows   int        `json:"flows"`
	// The remaining fields are valid when State == StateDone.
	Admitted     int           `json:"admitted,omitempty"`
	Failed       int           `json:"failed,omitempty"`
	CostBps      int64         `json:"cost_bps,omitempty"`
	QueuingDelay time.Duration `json:"queuing_delay_ns,omitempty"`
	ECT          time.Duration `json:"ect_ns,omitempty"`
}

// SubmitVerdict is one event's outcome within an OpSubmitBatch
// response, in submission order.
type SubmitVerdict struct {
	OK bool `json:"ok"`
	// EventID is the assigned ID when OK.
	EventID int64 `json:"event_id,omitempty"`
	// Error explains a rejection (validation failure, overload).
	Error string `json:"error,omitempty"`
	// Overloaded marks a rejection caused purely by backpressure: the
	// event was well-formed and can be resubmitted after the hint.
	Overloaded bool `json:"overloaded,omitempty"`
	// Shard is the 1-based shard that admitted (or rejected) the event in
	// a sharded deployment; zero on a single-shard server, so pre-shard
	// responses are byte-identical (omitempty in JSON, flag-gated in the
	// dense verdict frame).
	Shard int `json:"shard,omitempty"`
}

// OverloadInfo is the backpressure detail attached to any response that
// rejected events for overload: how deep the queue was and when a retry
// is worth attempting.
type OverloadInfo struct {
	// QueueDepth is the update-queue length at rejection time.
	QueueDepth int `json:"queue_depth"`
	// Watermark is the intake bound the depth ran into.
	Watermark int `json:"watermark"`
	// RetryAfterMs is the server's hint for the earliest sensible
	// resubmission, in milliseconds.
	RetryAfterMs int64 `json:"retry_after_ms"`
}

// RetryAfter returns the hint as a duration.
func (o *OverloadInfo) RetryAfter() time.Duration {
	return time.Duration(o.RetryAfterMs) * time.Millisecond
}

// Response is one server->client message.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// EventID echoes the assigned ID after OpSubmit.
	EventID int64 `json:"event_id,omitempty"`
	// Verdicts answers OpSubmitBatch (one per submitted event, in order).
	Verdicts []SubmitVerdict `json:"verdicts,omitempty"`
	// Overload carries backpressure details when any event of the
	// request was rejected for overload.
	Overload *OverloadInfo `json:"overload,omitempty"`
	// Status answers OpStatus.
	Status *EventStatus `json:"status,omitempty"`
	// Results answers OpResults: the retained completed events (the done
	// window), in completion order.
	Results []EventStatus `json:"results,omitempty"`
	// Stats answers OpStats.
	Stats *Stats `json:"stats,omitempty"`
	// Metrics answers OpMetrics.
	Metrics obs.Sample `json:"metrics,omitempty"`
	// Snapshot answers OpSnapshot.
	Snapshot *snapshot.Snapshot `json:"snapshot,omitempty"`
	// Trace answers OpTrace (oldest record first).
	Trace []obs.Record `json:"trace,omitempty"`
	// Fault answers OpFault.
	Fault *FaultResult `json:"fault,omitempty"`
	// Features answers OpPing: optional protocol capabilities this
	// server speaks (e.g. FeatureSpanContext). Old servers simply omit
	// it, which is how clients downgrade.
	Features []string `json:"features,omitempty"`
	// Repl answers OpReplStatus and OpReplPromote.
	Repl *ReplInfo `json:"repl,omitempty"`
	// NotLeader carries the typed rejection detail when a submit, fault
	// or promote landed on a server that cannot serve writes (follower
	// or deposed leader).
	NotLeader *NotLeaderInfo `json:"not_leader,omitempty"`
}

// ReplInfo answers OpReplStatus: the server's replication role and
// term, plus role-specific detail — registered followers on a leader,
// own lag and leader address on a follower, and the last promotion's
// drain-to-serving time.
type ReplInfo struct {
	Role string `json:"role"`
	Term uint64 `json:"term"`
	// LastSeq is the server's own WAL sequence.
	LastSeq int64 `json:"last_seq"`
	// LeaderAddr and LagRecords describe a follower's session: the
	// leader it streams from and how far behind its fold is.
	LeaderAddr string `json:"leader_addr,omitempty"`
	LagRecords int64  `json:"lag_records,omitempty"`
	// LastError surfaces a follower's terminal session error (stale
	// leader, behind checkpoint) that stopped its reconnect loop.
	LastError string `json:"last_error,omitempty"`
	// Followers lists a leader's registered replication sessions.
	Followers []FollowerInfo `json:"followers,omitempty"`
	// FailoverMs is the last promotion's drain-to-serving time (0 if
	// this server was never promoted).
	FailoverMs int64 `json:"failover_ms,omitempty"`
}

// FollowerInfo is one registered replication session on a leader.
type FollowerInfo struct {
	Addr string `json:"addr"`
	// AckedSeq is the follower's last durability acknowledgement;
	// LagRecords the leader's log end minus it.
	AckedSeq   int64 `json:"acked_seq"`
	LagRecords int64 `json:"lag_records"`
	// Synced marks a follower that caught up past its registration
	// point and now gates group commits.
	Synced bool `json:"synced"`
}

// NotLeaderInfo is the wire detail of a write rejected for role.
type NotLeaderInfo struct {
	Role string `json:"role"`
	Term uint64 `json:"term"`
	// LeaderAddr is the leader this follower streams from, when known —
	// the client's redirect hint.
	LeaderAddr string `json:"leader_addr,omitempty"`
}

// FeatureSpanContext advertises (in the ping response) that the server
// decodes the span-context field on submit requests — including the
// flag-gated binary prefix, which pre-span v2 peers would reject.
const FeatureSpanContext = "span-ctx"

// FeatureShardVerdicts advertises (in the ping response) that the
// server understands the shard-info request flag and will stamp each
// submit-batch verdict with its owning shard in the dense verdict frame.
// Without the flag (or in a JSON body, where the field is omitempty)
// frames stay byte-identical to pre-shard builds.
const FeatureShardVerdicts = "shard-verdicts"

// Protocol-level errors.
var (
	// ErrBadRequest is returned for malformed or unsupported requests.
	ErrBadRequest = errors.New("ctl: bad request")
	// ErrUnsupportedVersion is returned by ParseRequest for a frame
	// whose header carries a protocol version this server does not
	// speak.
	ErrUnsupportedVersion = errors.New("ctl: unsupported protocol version")
	// ErrServerClosed is returned by client calls after the server went
	// away and by Serve after Close.
	ErrServerClosed = errors.New("ctl: server closed")
	// ErrOverloaded marks submissions rejected by backpressure: the
	// update queue is past its high-watermark. Match with errors.Is; the
	// concrete error is an *OverloadError carrying the queue depth and
	// the server's retry-after hint.
	ErrOverloaded = errors.New("ctl: overloaded")
)

// OverloadError is the typed client-side form of an overload rejection.
// errors.Is(err, ErrOverloaded) reports true for it.
type OverloadError struct {
	// QueueDepth and Watermark describe the queue at rejection time.
	QueueDepth int
	Watermark  int
	// RetryAfter is the server's resubmission hint.
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("ctl: overloaded: queue depth %d past watermark %d, retry after %v",
		e.QueueDepth, e.Watermark, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// ErrNotLeader marks writes (submit, fault, promote) rejected because
// the server is a replication follower or a deposed leader. Match with
// errors.Is; the concrete error is a *NotLeaderError carrying the role,
// term and redirect hint.
var ErrNotLeader = errors.New("ctl: not the leader")

// NotLeaderError is the typed client-side form of a role rejection.
type NotLeaderError struct {
	// Role is the rejecting server's replication role ("follower" or
	// "deposed").
	Role string
	Term uint64
	// LeaderAddr is the leader the rejecting follower streams from,
	// when known.
	LeaderAddr string
}

// Error implements error.
func (e *NotLeaderError) Error() string {
	if e.LeaderAddr != "" {
		return fmt.Sprintf("ctl: not the leader (%s, term %d); leader at %s", e.Role, e.Term, e.LeaderAddr)
	}
	return fmt.Sprintf("ctl: not the leader (%s, term %d)", e.Role, e.Term)
}

// Is makes errors.Is(err, ErrNotLeader) match.
func (e *NotLeaderError) Is(target error) bool { return target == ErrNotLeader }

// Validate checks a submitted event.
func (e *EventSpec) Validate(numNodes int) error {
	if e == nil {
		return fmt.Errorf("%w: missing event", ErrBadRequest)
	}
	if len(e.Flows) == 0 {
		return fmt.Errorf("%w: event has no flows", ErrBadRequest)
	}
	for i, f := range e.Flows {
		if f.Src < 0 || f.Src >= numNodes || f.Dst < 0 || f.Dst >= numNodes {
			return fmt.Errorf("%w: flow %d endpoints out of range", ErrBadRequest, i)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("%w: flow %d src == dst", ErrBadRequest, i)
		}
		if f.DemandBps <= 0 {
			return fmt.Errorf("%w: flow %d non-positive demand", ErrBadRequest, i)
		}
		if f.SizeBytes < 0 {
			return fmt.Errorf("%w: flow %d negative size", ErrBadRequest, i)
		}
	}
	return nil
}
