package sched

import (
	"fmt"
	"sort"
	"sync"
)

// Option configures a scheduler at construction time. Options that do
// not apply to the chosen policy (e.g. WithScanAll on FIFO) are ignored,
// so callers can thread one option set through a policy flag.
type Option func(*config)

// config collects the construction-time knobs the registry's builders
// consult.
type config struct {
	alpha   int
	seed    int64
	scanAll bool
}

// WithAlpha sets the LMTF/P-LMTF sample size (0 means DefaultAlpha).
func WithAlpha(alpha int) Option { return func(c *config) { c.alpha = alpha } }

// WithSeed sets the sampling RNG seed (default 1).
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithScanAll makes P-LMTF offer the entire queue (not just the sampled
// candidates) for co-scheduling — the costlier alternative Section IV-C
// rejects, kept for ablations. Other policies ignore it.
func WithScanAll() Option { return func(c *config) { c.scanAll = true } }

// UnknownSchedulerError is returned by New for a name no builder is
// registered under. It lists the registered names so callers (CLIs, the
// daemon) can print an actionable message.
type UnknownSchedulerError struct {
	Name       string
	Registered []string
}

// Error implements error.
func (e *UnknownSchedulerError) Error() string {
	return fmt.Sprintf("sched: unknown scheduler %q (registered: %v)", e.Name, e.Registered)
}

// Builder constructs a scheduler from the resolved sample size and seed.
type Builder func(alpha int, seed int64) Scheduler

var (
	registryMu sync.RWMutex
	registry   = map[string]Builder{
		"fifo":    func(int, int64) Scheduler { return FIFO{} },
		"reorder": func(int, int64) Scheduler { return Reorder{} },
		"lmtf":    func(alpha int, seed int64) Scheduler { return NewLMTF(alpha, seed) },
		"p-lmtf":  func(alpha int, seed int64) Scheduler { return NewPLMTF(alpha, seed) },
	}
)

// Register adds a scheduler builder under name, for policies defined
// outside this package. It panics on a duplicate name, like
// database/sql.Register.
func Register(name string, b Builder) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sched: Register called twice for %q", name))
	}
	registry[name] = b
}

// Names returns the registered scheduler names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New builds the named scheduler, replacing the string switches that
// used to be duplicated across the CLIs and the daemon. Unknown names
// return an *UnknownSchedulerError listing the registered policies.
func New(name string, opts ...Option) (Scheduler, error) {
	c := config{alpha: DefaultAlpha, seed: 1}
	for _, opt := range opts {
		opt(&c)
	}
	registryMu.RLock()
	b, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, &UnknownSchedulerError{Name: name, Registered: Names()}
	}
	s := b(c.alpha, c.seed)
	if p, isP := s.(*PLMTF); isP {
		p.scanAll = c.scanAll
	}
	return s, nil
}
