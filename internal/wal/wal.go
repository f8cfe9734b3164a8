// Package wal is the durable write-ahead event log of the update
// controller: an append-only, length-prefixed, CRC-framed record stream
// that captures every externally-visible input to the deterministic
// engine in admission order — admitted update events and applied fault
// injections — each stamped with a logical-clock ID (virtualTime, seq).
//
// Because the engine is deterministic by construction (byte-identical
// traces per seed), engine state is a pure fold of this log: replaying
// the records against a freshly built world reproduces the exact queue,
// network, clock and metrics the daemon held when the log was written.
// That is the Bayou ordered-update-log design: update IDs <time, seq>,
// DB = fold of the log. Periodic checkpoints capture the folded state
// and truncate the log; recovery restores the newest checkpoint and
// replays only the record suffix past it.
//
// On-disk layout (one directory per daemon):
//
//	wal-<first-seq>.log   segment files, oldest first
//	checkpoint.json       newest checkpoint (atomic rename)
//
// checkpoint.json holds one binary checkpoint container (checkpoint.go:
// a magic byte, then one CRC envelope around a varint header and the
// opaque state), not JSON; a file from before the container, which was
// JSON, still reads. The file keeps its name on purpose: a binary from
// before the container fails at Open with "bad checkpoint" before it
// folds anything, where under a new name it would ignore the file and
// replay the post-checkpoint segments over a genesis world.
//
// Each segment opens with a meta record describing the world the log
// folds over (scheduler, seed, topology, ...); recovery refuses a log
// whose meta does not match the restarted daemon's configuration.
//
// Framing is corruption-evident: a frame is [u32 payload length]
// [u32 CRC-32C of payload][payload]. A torn tail — a crash mid-write —
// is cleanly ignored up to the last valid frame; a CRC mismatch in the
// middle of a segment surfaces as ErrCorrupt.
package wal

import (
	"errors"
	"fmt"
)

// FormatVersion identifies the WAL record schema.
const FormatVersion = 1

// Typed errors. Match with errors.Is.
var (
	// ErrCorrupt marks a frame whose CRC does not match its payload, a
	// malformed record body, or a sequence discontinuity — damage that a
	// clean crash cannot produce, so replay refuses to guess past it.
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrMetaMismatch is returned when a log's meta record describes a
	// different world (scheduler, seed, topology) than the daemon
	// replaying it was configured with.
	ErrMetaMismatch = errors.New("wal: meta mismatch")
	// ErrSeq is returned by Writer.Append for a record whose sequence
	// number is not exactly one past the previous append.
	ErrSeq = errors.New("wal: non-monotonic sequence")
)

// SyncPolicy selects when appended records are fsynced to stable
// storage.
type SyncPolicy int

const (
	// SyncGroup fsyncs once per commit (a batch of appends acked
	// together) — the default: group commit amortizes the fsync over the
	// batch, so the pipelined ingest path keeps its throughput.
	SyncGroup SyncPolicy = iota
	// SyncAlways fsyncs after every single append, bounding loss to zero
	// acknowledged records at the cost of one fsync per record.
	SyncAlways
	// SyncOff never fsyncs: appends are flushed to the OS but ride on
	// the page cache. A process crash loses nothing; a machine crash may
	// lose the tail.
	SyncOff
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncGroup:
		return "group"
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	default:
		return "unknown"
	}
}

// ParseSyncPolicy parses a -wal-sync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "group":
		return SyncGroup, nil
	case "always":
		return SyncAlways, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always, group or off)", s)
	}
}

// ID is a record's logical-clock identifier: the engine's virtual time
// at admission and a strictly increasing sequence number. Sequence
// numbers are global across segment rotations, so (VT, Seq) totally
// orders the history even though VT alone repeats (several admissions
// can land between two rounds).
type ID struct {
	// VT is the engine's virtual clock in nanoseconds.
	VT int64 `json:"vt"`
	// Seq numbers records from 1; a checkpoint covering Seq = s replaces
	// the fold of records 1..s.
	Seq int64 `json:"seq"`
}

// Type tags a record's payload.
type Type byte

const (
	// TypeMeta opens every segment: it describes the world the log folds
	// over and carries the sequence base of the segment.
	TypeMeta Type = 1
	// TypeEvent records one admitted update event (post-verdict).
	TypeEvent Type = 2
	// TypeFault records one applied fault injection.
	TypeFault Type = 3
	// TypeRound records the outcome of one executed scheduling round
	// whose decision carried a plan worth logging (RoundRecord). Unlike
	// the others it is not an input: replay applies it instead of
	// re-planning the round.
	TypeRound Type = 4
)

// Meta describes the deterministic world a log folds over. Recovery
// verifies it against the restarted daemon's configuration: replaying
// an event log against a different world would diverge silently.
type Meta struct {
	Format    int     `json:"format"`
	Scheduler string  `json:"scheduler"`
	Seed      int64   `json:"seed"`
	K         int     `json:"k"`
	Util      float64 `json:"util"`
	Watermark int     `json:"watermark"`
	Tables    int     `json:"tables"`
	// Shard/Shards record a sharded engine's placement (1-based ID of N);
	// zero for unsharded logs, so pre-shard logs compare equal under
	// Check. Replaying a shard's log into a different slot would fold a
	// disjoint event-ID lattice and must be refused.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`
}

// Check reports whether got folds over the same world as m.
func (m *Meta) Check(got *Meta) error {
	if *m == *got {
		return nil
	}
	return fmt.Errorf("%w: log written for %+v, daemon configured %+v", ErrMetaMismatch, *m, *got)
}

// FlowSpec is one flow of a logged event, in wire units.
type FlowSpec struct {
	Src       int   `json:"src"`
	Dst       int   `json:"dst"`
	DemandBps int64 `json:"demand_bps"`
	SizeBytes int64 `json:"size_bytes"`
}

// EventRecord is the payload of one admitted update event.
type EventRecord struct {
	// EventID is the server-assigned event ID the submitter was acked.
	EventID int64 `json:"event_id"`
	// Kind is the event's label ("submitted", "vm-migration", ...).
	Kind string `json:"kind"`
	// Retry marks an admission from a request flagged as a backoff
	// resubmission (restores the retried-ingest counter on replay).
	Retry bool `json:"retry,omitempty"`
	// BatchSize is set on the first record of each accepted request to
	// the number of events that request admitted; replay restores the
	// batch counters and size histogram from it.
	BatchSize int `json:"batch_size,omitempty"`
	// Flows are the event's flows in submission order.
	Flows []FlowSpec `json:"flows"`
	// Origin and SubmitWallNs carry the wire span context of the
	// admitting request (both zero when the submitter sent none). They
	// are observability-only: replay never folds them into engine state,
	// and the wall stamp is explicitly non-deterministic.
	Origin       uint16 `json:"origin,omitempty"`
	SubmitWallNs int64  `json:"submit_wall_ns,omitempty"`
}

// FaultRecord is the payload of one applied fault injection, plus the
// outcome fields replay verifies against (a minted repair event is a
// deterministic consequence, so a mismatch means the fold diverged).
type FaultRecord struct {
	Action string `json:"action"`
	Link   int    `json:"link,omitempty"`
	Node   int    `json:"node,omitempty"`
	Event  int64  `json:"event,omitempty"`
	Times  int    `json:"times,omitempty"`
	// RepairEventID is the repair event the injection minted (0 = none);
	// replay asserts the re-applied injection mints the same one.
	RepairEventID int64 `json:"repair_event_id,omitempty"`
}

// Record is one WAL entry. Exactly one payload pointer matching Type is
// non-nil.
type Record struct {
	Type Type `json:"type"`
	// ID is the logical-clock stamp. For meta records Seq is the
	// segment's sequence base (the last seq covered before the segment).
	ID ID `json:"id"`
	// Rounds is the engine's completed-round count at admission (for a
	// round record, before the round): replay steps the engine to exactly
	// this round before applying the record, which reproduces the live
	// interleaving of rounds and admissions.
	Rounds int64 `json:"rounds"`

	Meta  *Meta        `json:"meta,omitempty"`
	Event *EventRecord `json:"event,omitempty"`
	Fault *FaultRecord `json:"fault,omitempty"`
	Round *RoundRecord `json:"round,omitempty"`
}
