package shard

import (
	"errors"
	"fmt"
	"sync"

	"netupdate/internal/topology"
)

// ErrCrossPoolExhausted is returned when a cross-shard event's demand
// does not fit the reserved core pool of every shard it touches.
var ErrCrossPoolExhausted = errors.New("shard: cross-shard core pool exhausted")

// DefaultCrossPoolFrac is the fraction of each core link's capacity
// reserved for cross-shard traffic when no override is given: each
// shard's private world keeps (1-frac)/N of the core, and frac stays in
// the gateway's ledgers for events that span shards.
const DefaultCrossPoolFrac = 0.25

// CrossAdmitter is the gateway's two-phase admission ledger for
// cross-shard events. Each shard contributes one scalar pool — its
// reserved slice of the shared core layer — and an event spanning
// shards must debit its aggregate demand from every touched shard's
// pool, all shards or none, before it is routed to its home engine. A
// debit is released only when the home engine rejects the event;
// confirmed events hold their slice, the reserved-pool analogue of a
// placed flow's reservation. The admitter counts its own outcomes, once
// each: a refusal in Admit, an admission in Confirm.
type CrossAdmitter struct {
	mu       sync.Mutex
	avail    []int64 // index s-1: remaining pool on shard s
	size     int64   // per-shard pool size at construction
	admitted int64
	rejected int64
}

// NewCrossAdmitter builds ledgers for n shards with perShard capacity
// (bits per second) each.
func NewCrossAdmitter(n int, perShard topology.Bandwidth) *CrossAdmitter {
	c := &CrossAdmitter{avail: make([]int64, n), size: int64(perShard)}
	for i := range c.avail {
		c.avail[i] = int64(perShard)
	}
	return c
}

// Admit debits demand from every touched shard's pool, all or nothing.
// touched lists distinct shards, as KeyOf gives them. An unknown shard
// is refused before anything is debited; if any touched pool is short,
// nothing is debited, one rejection is counted and the error, wrapping
// ErrCrossPoolExhausted, names the first short shard.
func (c *CrossAdmitter) Admit(touched []int, demand int64) error {
	if demand < 0 {
		return fmt.Errorf("shard: negative cross demand %d", demand)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range touched {
		if s < 1 || s > len(c.avail) {
			return fmt.Errorf("shard: cross admission touching unknown shard %d", s)
		}
	}
	for _, s := range touched {
		if have := c.avail[s-1]; demand > have {
			c.rejected++
			return fmt.Errorf("%w: shard %d needs %d, has %d", ErrCrossPoolExhausted, s, demand, have)
		}
	}
	for _, s := range touched {
		c.avail[s-1] -= demand
	}
	return nil
}

// Confirm counts an admitted cross event its home engine accepted: the
// debit now stays held for good.
func (c *CrossAdmitter) Confirm() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.admitted++
}

// Release returns a previously admitted debit, after the home engine
// refused the event (overload, validation): the pool must not leak
// capacity to events that never ran.
func (c *CrossAdmitter) Release(touched []int, demand int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range touched {
		if s < 1 || s > len(c.avail) {
			continue
		}
		c.avail[s-1] += demand
		if c.avail[s-1] > c.size {
			c.avail[s-1] = c.size
		}
	}
}

// Counters reports how many cross-shard events were pool-admitted and
// confirmed by their home engine, and how many the pool refused (0, 0
// on a nil admitter: no pool, no cross accounting).
func (c *CrossAdmitter) Counters() (admitted, rejected int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.admitted, c.rejected
}
