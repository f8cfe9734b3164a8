package ctl

import (
	"fmt"

	"netupdate/internal/obs"
	"netupdate/internal/snapshot"
)

// Backend is the one control-plane surface: everything a caller can ask
// a controller to do, independent of whether the controller is an
// in-process engine (*Server), a remote one over TCP (*Client), or a
// shard-routing gateway fronting several. updatectl, loadgen, and the
// gateway's fan-out all program against this interface, so an engine
// reached directly and one reached through the gateway cannot drift in
// semantics.
//
// Typed methods map refusals to the protocol's typed errors
// (OverloadError, NotLeaderError). Do is the raw escape hatch: it
// returns the Response as-is — refusals come back OK=false with the
// structured rejection payloads intact, and transport failures are
// folded into the same shape — which is what a router fanning in
// per-shard answers needs.
type Backend interface {
	Ping() error
	Features() ([]string, error)
	Submit(event EventSpec) (int64, error)
	SubmitBatch(events []EventSpec) ([]SubmitVerdict, *OverloadInfo, error)
	Status(eventID int64) (EventStatus, error)
	Results() ([]EventStatus, error)
	Stats() (Stats, error)
	Fault(spec FaultSpec) (FaultResult, error)
	Trace(n int) ([]obs.Record, error)
	Snapshot() (*snapshot.Snapshot, error)
	Do(req Request) Response
	Close() error
}

var (
	_ Backend = (*Server)(nil)
	_ Backend = (*Client)(nil)
)

// Do executes one raw request against the state loop. It is the
// in-process twin of Client.Do: no wire, no codec, same semantics.
func (s *Server) Do(req Request) Response {
	return s.dispatch(req)
}

// call is the Server's request function for the typed methods.
func (s *Server) call(req Request) (Response, error) {
	resp := s.dispatch(req)
	return resp, respError(req.Op, &resp)
}

// typed is the typed half of Backend, written once over a request
// function that maps refusals to the protocol's typed errors
// (respError). *Server and *Client embed it, each supplying its own.
type typed struct {
	request func(Request) (Response, error)
}

// need unwraps the payload a successful response to op must carry.
func need[T any](op Op, v *T, err error) (T, error) {
	if err == nil && v == nil {
		err = fmt.Errorf("ctl: %s: empty response", op)
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return *v, nil
}

// Ping checks the controller is alive and accepting requests.
func (t typed) Ping() error {
	_, err := t.request(Request{Op: OpPing})
	return err
}

// Features reports the optional protocol capabilities the controller
// advertises on a ping (empty for pre-feature servers).
func (t typed) Features() ([]string, error) {
	resp, err := t.request(Request{Op: OpPing})
	if err != nil {
		return nil, err
	}
	return resp.Features, nil
}

// Submit enqueues an update event and returns its ID.
func (t typed) Submit(event EventSpec) (int64, error) {
	resp, err := t.request(Request{Op: OpSubmit, Event: &event})
	if err != nil {
		return 0, err
	}
	return resp.EventID, nil
}

// SubmitBatch submits many events in one request and returns one verdict
// per event, in submission order. Verdicts may mix accepted events
// (OK with an ID), validation rejections, and overload rejections; when
// any event was refused for overload the returned OverloadInfo carries
// the server's queue depth and retry-after hint.
func (t typed) SubmitBatch(events []EventSpec) ([]SubmitVerdict, *OverloadInfo, error) {
	return t.submitBatch(events, false)
}

// submitBatch is SubmitBatch with the backoff-resubmission mark
// (Request.Retry) that Client.SubmitBatchRetry sets.
func (t typed) submitBatch(events []EventSpec, retry bool) ([]SubmitVerdict, *OverloadInfo, error) {
	resp, err := t.request(Request{Op: OpSubmitBatch, Events: events, Retry: retry})
	if err != nil {
		return nil, nil, err
	}
	if len(resp.Verdicts) != len(events) {
		return nil, nil, fmt.Errorf("ctl: submit-batch: %d verdicts for %d events", len(resp.Verdicts), len(events))
	}
	return resp.Verdicts, resp.Overload, nil
}

// Status reports one event's scheduling state.
func (t typed) Status(eventID int64) (EventStatus, error) {
	resp, err := t.request(Request{Op: OpStatus, EventID: eventID})
	return need(OpStatus, resp.Status, err)
}

// Results lists the completed events the server still retains (its last
// completions, up to the done window) in completion order.
func (t typed) Results() ([]EventStatus, error) {
	resp, err := t.request(Request{Op: OpResults})
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Stats reports controller-wide aggregates.
func (t typed) Stats() (Stats, error) {
	resp, err := t.request(Request{Op: OpStats})
	return need(OpStats, resp.Stats, err)
}

// Fault injects a fault into the running schedule and reports what it
// disrupted (links flipped, flows withdrawn, the repair event minted).
func (t typed) Fault(spec FaultSpec) (FaultResult, error) {
	resp, err := t.request(Request{Op: OpFault, Fault: &spec})
	return need(OpFault, resp.Fault, err)
}

// Trace fetches the most recent n scheduling-trace records (oldest
// first); n <= 0 fetches everything the ring retains.
func (t typed) Trace(n int) ([]obs.Record, error) {
	resp, err := t.request(Request{Op: OpTrace, N: n})
	if err != nil {
		return nil, err
	}
	return resp.Trace, nil
}

// Snapshot captures the controller's full network state.
func (t typed) Snapshot() (*snapshot.Snapshot, error) {
	resp, err := t.request(Request{Op: OpSnapshot})
	if err == nil && resp.Snapshot == nil {
		err = fmt.Errorf("ctl: snapshot: empty response")
	}
	return resp.Snapshot, err
}
