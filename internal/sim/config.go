// Package sim is the discrete-event simulator that drives trace-driven
// evaluations: it feeds queued update events to a scheduler, executes the
// chosen events against the network through the event planner, advances a
// virtual clock according to an explicit timing model, and records the
// paper's metrics.
//
// Timing model (reconstructed from Figs. 2 and 3 of the paper and
// documented in DESIGN.md):
//
//   - planning work is charged per feasibility evaluation (PlanEvalTime);
//   - migrating existing flows costs MigrationRate-proportional time
//     (Fig. 3 charges an event with cost 4 "seconds" versus 1 second of
//     execution);
//   - installing each flow of an event takes InstallTime, serialized
//     within an event (Fig. 2's unit-slot installs), while co-scheduled
//     events (P-LMTF) install in parallel lanes;
//   - an event completes when its rules are installed and its migrations
//     are done (InstallOnly, the paper's model), or additionally when its
//     own flows finish transferring (InstallPlusTransfer).
package sim

import (
	"time"

	"netupdate/internal/migration"
	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

// CompletionMode selects when an event counts as complete.
type CompletionMode int

const (
	// InstallOnly completes an event once all migrations are applied and
	// all flow rules are installed — the paper's ECT definition.
	InstallOnly CompletionMode = iota + 1
	// InstallPlusTransfer also waits for the event's own flows to finish
	// transferring their payloads (e.g. VM images).
	InstallPlusTransfer
)

// String implements fmt.Stringer.
func (m CompletionMode) String() string {
	switch m {
	case InstallOnly:
		return "install-only"
	case InstallPlusTransfer:
		return "install+transfer"
	default:
		return "unknown"
	}
}

// Config is the simulator timing model. The zero value gets defaults via
// withDefaults; all experiments share these defaults unless stated.
type Config struct {
	// InstallTime is the controller time to install one flow's rules
	// (default 10ms).
	InstallTime time.Duration
	// PerRuleOpTime, when positive, switches install accounting from
	// per-flow to per-rule-operation: installing a flow takes
	// (switch hops + 1 ingress flip) x PerRuleOpTime, and each migration
	// move adds its two-phase op count (install + flip + remove) — the
	// rule-level refinement backed by internal/rules and
	// internal/consistency. Zero keeps the coarse per-flow InstallTime.
	PerRuleOpTime time.Duration
	// MigrationRate converts migrated traffic into migration time: moving
	// `cost` of demand takes cost/MigrationRate seconds (default
	// 100 Mbps/s, i.e. 1 s per 100 Mbps of migrated demand).
	MigrationRate topology.Bandwidth
	// PlanEvalTime is the controller time per planning evaluation
	// (default 1µs; negative disables plan-time accounting, used by the
	// toy reproductions of Figs. 2 and 3 whose arithmetic has none).
	PlanEvalTime time.Duration
	// SerialPlanning charges planning time into the execution timeline
	// (decisions delay round starts). The default pipelines planning with
	// execution, as a real controller would: plan time is still accounted
	// as a metric (Fig. 6d) but does not inflate ECTs.
	SerialPlanning bool
	// Mode selects the completion semantics (default InstallOnly).
	Mode CompletionMode
	// KeepFlows retains an event flow's bandwidth forever. The default
	// (false) releases it once the flow's transfer finishes, modeling
	// finite update flows.
	KeepFlows bool
	// InstallRetryBase and InstallRetryCap shape the capped exponential
	// backoff after a timed-out rule install: retry i waits
	// min(Base << (i-1), Cap) before re-attempting (defaults 25ms / 200ms).
	InstallRetryBase time.Duration
	InstallRetryCap  time.Duration
	// MaxInstallRetries bounds install retries per event (default 3);
	// when timeouts persist past the budget, the event's bandwidth plan is
	// rolled back and all its specs recorded as failed.
	MaxInstallRetries int
}

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.InstallTime == 0 {
		c.InstallTime = 10 * time.Millisecond
	}
	if c.MigrationRate == 0 {
		c.MigrationRate = 100 * topology.Mbps
	}
	if c.PlanEvalTime == 0 {
		c.PlanEvalTime = time.Microsecond
	}
	if c.Mode == 0 {
		c.Mode = InstallOnly
	}
	if c.InstallRetryBase == 0 {
		c.InstallRetryBase = 25 * time.Millisecond
	}
	if c.InstallRetryCap == 0 {
		c.InstallRetryCap = 200 * time.Millisecond
	}
	if c.MaxInstallRetries == 0 {
		c.MaxInstallRetries = 3
	}
	return c
}

// retryBackoff is the wait before install retry i (1-based): capped
// exponential, min(Base << (i-1), Cap).
func (c Config) retryBackoff(i int) time.Duration {
	d := c.InstallRetryBase << (i - 1)
	if d > c.InstallRetryCap || d <= 0 { // <= 0 guards shift overflow
		d = c.InstallRetryCap
	}
	return d
}

// totalBackoff sums the backoff waits of n retries.
func (c Config) totalBackoff(n int) time.Duration {
	var total time.Duration
	for i := 1; i <= n; i++ {
		total += c.retryBackoff(i)
	}
	return total
}

// migrationTime converts migrated traffic into simulated time.
func (c Config) migrationTime(cost topology.Bandwidth) time.Duration {
	if cost <= 0 || c.MigrationRate <= 0 {
		return 0
	}
	sec := float64(cost) / float64(c.MigrationRate)
	return time.Duration(sec * float64(time.Second))
}

// installDuration is how long one admission's rule installation takes: a
// flat InstallTime per flow by default, or the two-phase rule-operation
// count times PerRuleOpTime when rule-level accounting is on (the flow's
// own install+flip, plus install+flip+remove for each migrated victim —
// matching consistency.Plan.NumRuleOps).
func installDuration(cfg Config, g *topology.Graph, adm *migration.Result) time.Duration {
	if cfg.PerRuleOpTime <= 0 {
		return cfg.InstallTime
	}
	ops := switchHops(g, adm.Path) + 1
	for _, mv := range adm.Moves {
		ops += switchHops(g, mv.From) + switchHops(g, mv.To) + 1
	}
	return time.Duration(ops) * cfg.PerRuleOpTime
}

// switchHops counts a path's switch-sourced links — the rules it occupies.
func switchHops(g *topology.Graph, p routing.Path) int {
	hops := 0
	for _, l := range p.Links() {
		if g.Node(g.Link(l).From).Kind.IsSwitch() {
			hops++
		}
	}
	return hops
}

// planTime converts an evaluation count into simulated planning time.
func (c Config) planTime(evals int) time.Duration {
	if c.PlanEvalTime < 0 {
		return 0
	}
	return time.Duration(evals) * c.PlanEvalTime
}
