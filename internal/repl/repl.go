// Package repl defines the leader→follower WAL replication protocol of
// the update controller: the wire frames a leader uses to stream its
// write-ahead log to warm followers, the handshake that resumes a
// follower from an arbitrary sequence number, and the term discipline
// that keeps a deposed leader from ever dual-writing after a follower
// has been promoted.
//
// The protocol is deliberately small because the hard problem is
// already solved one layer down: engine state is a pure deterministic
// fold of the WAL (the Bayou ordered-update-log design), so "replicate
// the state machine" reduces to "ship the committed log frames in
// order". A follower folds each received record through the exact
// replay path crash recovery uses, which means a promoted follower is
// byte-for-byte the state a never-crashed server holding the same
// acked prefix would be in.
//
// Split-brain rules (see DESIGN.md §15):
//
//   - Every promotion bumps a monotonically increasing term, persisted
//     in term.json next to the WAL before the new leader serves.
//   - A leader that receives a Hello carrying a term above its own has
//     been deposed: it answers CodeDeposed and steps down read-only.
//   - A follower that receives a Welcome carrying a term below its own
//     refuses the session (ErrStaleLeader) and never folds its frames.
package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"netupdate/internal/wal"
)

// Typed errors. Match with errors.Is.
var (
	// ErrCorrupt marks a replication frame whose CRC does not match its
	// payload or whose shape is malformed.
	ErrCorrupt = errors.New("repl: corrupt frame")
	// ErrStaleLeader is returned by CheckWelcome when the leader's term
	// is below the follower's own: a deposed leader revived and must
	// never have its frames folded.
	ErrStaleLeader = errors.New("repl: stale leader term")
	// ErrRejected wraps a non-empty Welcome rejection code.
	ErrRejected = errors.New("repl: handshake rejected")
	// ErrSeqGap marks a records frame whose sequence numbers are not
	// contiguous with what the follower has applied.
	ErrSeqGap = errors.New("repl: replication sequence gap")
)

// Welcome rejection codes. A non-empty Code in a Welcome frame refuses
// the session; the code is machine-readable so followers and tests can
// distinguish "wipe and resync" from "you deposed me".
const (
	// CodeDeposed: the Hello carried a term above the leader's — the
	// contacted server has been deposed by a promotion it had not heard
	// about, acknowledges it, and steps down read-only.
	CodeDeposed = "deposed"
	// CodeMetaMismatch: the follower's WAL meta describes a different
	// deterministic world (scheduler, seed, topology, ...).
	CodeMetaMismatch = "meta-mismatch"
	// CodeFull: the leader already serves its configured maximum number
	// of followers.
	CodeFull = "followers-full"
	// CodeAhead: the follower claims a sequence number past the leader's
	// log end — it replicated from a different history.
	CodeAhead = "follower-ahead"
	// CodeBehind: the follower's log ends before the leader's newest
	// checkpoint and it cannot accept a bootstrap snapshot (non-empty
	// log). The operator must wipe the follower's WAL dir and resync.
	CodeBehind = "behind-checkpoint"
	// CodeNoWAL: the contacted server runs without a WAL and has nothing
	// to replicate.
	CodeNoWAL = "no-wal"
	// CodeNotLeader: the contacted server is itself a follower (or
	// deposed); chained replication is not supported.
	CodeNotLeader = "not-leader"
)

// Hello is the follower's handshake, sent once per session.
type Hello struct {
	// Term is the highest term the follower has persisted. A term above
	// the leader's own deposes the leader.
	Term uint64 `json:"term"`
	// AfterSeq is the last WAL sequence number the follower holds
	// durably; the leader resumes the stream from AfterSeq+1.
	AfterSeq int64 `json:"after_seq"`
	// Bootstrap is set when the follower's log is empty and it can
	// install a full checkpoint snapshot before folding frames.
	Bootstrap bool `json:"bootstrap,omitempty"`
	// Meta is the follower's world configuration; the leader refuses a
	// follower folding over a different world.
	Meta wal.Meta `json:"meta"`
}

// Welcome is the leader's handshake reply.
type Welcome struct {
	// Code is empty on acceptance, else one of the Code* rejections.
	Code string `json:"code,omitempty"`
	// Detail is a human-readable elaboration of Code.
	Detail string `json:"detail,omitempty"`
	// Term is the leader's current term; the follower adopts it when it
	// is higher than its own.
	Term uint64 `json:"term"`
	// LastSeq is the leader's WAL sequence at session registration; the
	// follower is "caught up" once it has acked through it.
	LastSeq int64 `json:"last_seq"`
	// CheckpointSeq is the sequence covered by the leader's newest
	// checkpoint (0 = none).
	CheckpointSeq int64 `json:"checkpoint_seq,omitempty"`
	// Snapshot announces that a bootstrap Checkpoint frame follows the
	// Welcome before any records.
	Snapshot bool `json:"snapshot,omitempty"`
}

// Heartbeat is the leader's liveness beacon; it also advances the
// follower's lag accounting between record frames.
type Heartbeat struct {
	Term    uint64
	LastSeq int64
}

// Ack is the follower's durability acknowledgement: every record with
// seq ≤ Seq has been appended to the follower's own WAL, committed, and
// folded through the replay path.
type Ack struct {
	Seq int64
}

// Verdict is Judge's decision on a Hello.
type Verdict struct {
	// Code is empty when the session is accepted.
	Code string
	// Detail elaborates a rejection.
	Detail string
	// SendCheckpoint is set when the leader must ship its newest
	// checkpoint as a bootstrap snapshot before streaming records.
	SendCheckpoint bool
	// Deposed is set when the Hello's term deposed the leader: the
	// caller must step down read-only even as it rejects the session.
	Deposed bool
}

// Judge decides, as a pure function, whether a leader at (term,
// lastSeq, ckptSeq, meta) accepts a follower's Hello. followers is the
// number of sessions already registered; maxFollowers the configured
// cap. It is the single authority consulted by the server wiring, so
// the split-brain table tests pin its behavior directly.
func Judge(term uint64, lastSeq, ckptSeq int64, meta *wal.Meta, followers, maxFollowers int, h *Hello) Verdict {
	if h.Term > term {
		return Verdict{
			Code:    CodeDeposed,
			Detail:  fmt.Sprintf("hello term %d above leader term %d", h.Term, term),
			Deposed: true,
		}
	}
	if meta != nil {
		if err := meta.Check(&h.Meta); err != nil {
			return Verdict{Code: CodeMetaMismatch, Detail: err.Error()}
		}
	}
	if followers >= maxFollowers {
		return Verdict{Code: CodeFull, Detail: fmt.Sprintf("already serving %d of %d followers", followers, maxFollowers)}
	}
	if h.AfterSeq > lastSeq {
		return Verdict{Code: CodeAhead, Detail: fmt.Sprintf("follower at seq %d, leader log ends at %d", h.AfterSeq, lastSeq)}
	}
	if h.AfterSeq < ckptSeq {
		// The leader no longer holds records ≤ its checkpoint; only a
		// follower that can install the checkpoint wholesale may proceed.
		if !h.Bootstrap || h.AfterSeq != 0 {
			return Verdict{Code: CodeBehind, Detail: fmt.Sprintf("follower at seq %d behind leader checkpoint %d; wipe the follower WAL dir and resync", h.AfterSeq, ckptSeq)}
		}
		return Verdict{SendCheckpoint: true}
	}
	return Verdict{}
}

// CheckWelcome validates a Welcome against the follower's own term.
// A rejection code maps to a typed error; a stale leader term is
// refused before any frame is folded.
func CheckWelcome(myTerm uint64, w *Welcome) error {
	if w.Code != "" {
		return fmt.Errorf("%w: %s (%s)", ErrRejected, w.Code, w.Detail)
	}
	if w.Term < myTerm {
		return fmt.Errorf("%w: leader at term %d, follower already at term %d", ErrStaleLeader, w.Term, myTerm)
	}
	return nil
}

// termName is the file persisting the replication term, next to the
// WAL segments it fences.
const termName = "term.json"

type termDoc struct {
	Term uint64 `json:"term"`
}

// LoadTerm reads the persisted replication term from dir, defaulting
// to 1 when no term has ever been persisted.
func LoadTerm(dir string) (uint64, error) {
	data, err := os.ReadFile(filepath.Join(dir, termName))
	if errors.Is(err, os.ErrNotExist) {
		return 1, nil
	}
	if err != nil {
		return 0, fmt.Errorf("repl: read term: %w", err)
	}
	var doc termDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("repl: parse term: %w", err)
	}
	if doc.Term == 0 {
		return 1, nil
	}
	return doc.Term, nil
}

// SaveTerm durably persists term in dir (wal.WriteFileAtomic, as the
// checkpoint is). A promotion must persist its new term before serving
// writes: the term is the fence that lets the old leader learn it was
// deposed.
func SaveTerm(dir string, term uint64) error {
	data, err := json.Marshal(termDoc{Term: term})
	if err != nil {
		return err
	}
	if err := wal.WriteFileAtomic(dir, termName, data); err != nil {
		return fmt.Errorf("repl: persist term: %w", err)
	}
	return nil
}
