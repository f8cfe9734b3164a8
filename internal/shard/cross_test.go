package shard

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// TestCrossAdmitterAllOrNothing: a cross-shard event debits every touched
// ledger or none. The pools are made unequal first, so a refusal can come
// from a shard after one that could pay — the case where a partial debit
// would show.
func TestCrossAdmitterAllOrNothing(t *testing.T) {
	const size = 100
	c := NewCrossAdmitter(3, size)
	want := func(label string, avail []int64, rejected int64) {
		t.Helper()
		if !slices.Equal(c.avail, avail) {
			t.Errorf("%s: ledgers = %v, want %v", label, c.avail, avail)
		}
		if _, rej := c.Counters(); rej != rejected {
			t.Errorf("%s: rejections = %d, want %d", label, rej, rejected)
		}
	}

	// An event on shard 1 alone: shard 1 is now the shorter pool.
	if err := c.Admit([]int{1}, 60); err != nil {
		t.Fatalf("admit on shard 1 alone: %v", err)
	}
	want("after shard 1 alone", []int64{40, 100, 100}, 0)

	// Only shard 2 can pay 50: refused at the first touched shard.
	err := c.Admit([]int{1, 2}, 50)
	if !errors.Is(err, ErrCrossPoolExhausted) || !strings.Contains(err.Error(), "shard 1 ") {
		t.Fatalf("shard 1 short: err = %v, want ErrCrossPoolExhausted naming shard 1", err)
	}
	want("shard 1 short", []int64{40, 100, 100}, 1)

	// An event on shard 2 alone makes shard 2 the shorter pool; then only
	// shard 1 can pay 30, and shard 1 must keep what it has.
	if err := c.Admit([]int{2}, 75); err != nil {
		t.Fatalf("admit on shard 2 alone: %v", err)
	}
	err = c.Admit([]int{1, 2}, 30)
	if !errors.Is(err, ErrCrossPoolExhausted) || !strings.Contains(err.Error(), "shard 2 ") {
		t.Fatalf("shard 2 short: err = %v, want ErrCrossPoolExhausted naming shard 2", err)
	}
	want("shard 2 short", []int64{40, 25, 100}, 2)

	// An unknown shard is refused before any debit, and is no pool
	// rejection.
	err = c.Admit([]int{1, 4}, 10)
	if err == nil || errors.Is(err, ErrCrossPoolExhausted) {
		t.Fatalf("unknown shard: err = %v, want a non-pool refusal", err)
	}
	want("unknown shard", []int64{40, 25, 100}, 2)

	// What every touched shard can pay is debited from each.
	if err := c.Admit([]int{1, 2, 3}, 25); err != nil {
		t.Fatalf("admit on every shard: %v", err)
	}
	want("all pay", []int64{15, 0, 75}, 2)

	// Release returns a debit but never grows a ledger past its size.
	c.Release([]int{1, 2, 3}, 90)
	want("release", []int64{size, 90, size}, 2)
}

// TestCrossAdmitterCommitsAll: when every touched pool can pay, Admit
// debits the demand from each of them and no other, counts no
// rejection, and Confirm counts the event admitted once.
func TestCrossAdmitterCommitsAll(t *testing.T) {
	c := NewCrossAdmitter(4, 10)
	if err := c.Admit([]int{1, 3}, 3); err != nil {
		t.Fatalf("admit 3 on shards 1, 3: %v", err)
	}
	if err := c.Admit([]int{3, 4}, 7); err != nil {
		t.Fatalf("admit 7 on shards 3, 4: %v", err)
	}
	if want := []int64{7, 10, 0, 3}; !slices.Equal(c.avail, want) {
		t.Errorf("ledgers = %v, want %v", c.avail, want)
	}
	if adm, rej := c.Counters(); adm != 0 || rej != 0 {
		t.Errorf("counters before Confirm = %d, %d, want 0, 0", adm, rej)
	}
	c.Confirm()
	if adm, rej := c.Counters(); adm != 1 || rej != 0 {
		t.Errorf("counters after Confirm = %d, %d, want 1, 0", adm, rej)
	}
}
