package experiments

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"netupdate/internal/metrics"
	"netupdate/internal/obs"
)

// Report is the output of one experiment runner.
type Report struct {
	// Name is the experiment id ("fig4", ...).
	Name string
	// Description states what the paper's figure shows.
	Description string
	// Tables hold the regenerated rows/series.
	Tables []*metrics.Table
	// Headlines are the key scalar outcomes ("max avg-ECT speedup": 4.2),
	// compared against the paper's claims in EXPERIMENTS.md.
	Headlines map[string]float64
	// Notes record caveats (substitutions, extensions beyond the paper, ...).
	Notes []string
	// Elapsed is the real wall time of the run (set by RunAll).
	Elapsed time.Duration
}

// headline records a named scalar outcome.
func (r *Report) headline(name string, v float64) {
	if r.Headlines == nil {
		r.Headlines = make(map[string]float64)
	}
	r.Headlines[name] = v
}

// WriteTo renders the report. It implements io.WriterTo.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n\n", r.Name, r.Description)
	for _, t := range r.Tables {
		if _, err := t.WriteTo(&b); err != nil {
			return 0, err
		}
		b.WriteByte('\n')
	}
	if len(r.Headlines) > 0 {
		b.WriteString("headlines:\n")
		keys := make([]string, 0, len(r.Headlines))
		for k := range r.Headlines {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-42s %.3f\n", k, r.Headlines[k])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the report to a string.
func (r *Report) String() string {
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		return fmt.Sprintf("report render error: %v", err)
	}
	return b.String()
}

// Runner produces a report.
type Runner func(Options) (*Report, error)

// Experiment pairs an id with its runner and a one-line summary.
type Experiment struct {
	Name    string
	Summary string
	Run     Runner
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "success probability of no-migration flow insertion vs utilization", Fig1},
		{"fig2", "toy flow-level vs event-level ordering (illustrative)", Fig2},
		{"fig3", "toy FIFO vs cost-reorder ordering (illustrative)", Fig3},
		{"fig4", "event-level vs flow-level, 10 events, mean flows/event 15..75", Fig4},
		{"fig5", "event-level vs flow-level vs number of events", Fig5},
		{"fig6", "LMTF and P-LMTF vs FIFO: cost, avg/tail ECT, plan time", Fig6},
		{"fig7", "P-LMTF vs FIFO across utilizations and event types", Fig7},
		{"fig8", "queuing-delay reductions vs number of events", Fig8},
		{"fig9", "per-event queuing delay, 30 events", Fig9},
		{"ablation-alpha", "LMTF/P-LMTF sensitivity to the sample size alpha", AblationAlpha},
		{"ablation-greedy", "migration greedy strategy comparison", AblationGreedy},
		{"ablation-reorder", "LMTF sampling vs full-queue reorder", AblationReorder},
		{"ablation-churn", "scheduler benefit with background traffic in flux", AblationChurn},
		{"ablation-split", "two-splittable victim migration at high utilization", AblationSplit},
		{"ablation-ruleops", "per-flow vs per-rule-operation install accounting", AblationRuleOps},
		{"ablation-online", "Poisson event arrivals across offered loads", AblationOnline},
		{"ablation-batch", "sampled vs full-queue opportunistic co-scheduling", AblationBatch},
	}
}

// Find returns the experiment with the given name.
func Find(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Job is one experiment at one seed.
type Job struct {
	Experiment Experiment
	Seed       int64
}

// RunAll runs the jobs side by side, at most runtime.GOMAXPROCS(0) at a
// time, and returns their reports in job order. When trace is non-nil,
// each job traces into its own in-memory JSONL buffer and the buffers are
// written to trace in job order, so the stream is byte-identical to a
// serial run's. The error returned is the first in job order.
func RunAll(jobs []Job, trace io.Writer) ([]*Report, error) {
	reports := make([]*Report, len(jobs))
	errs := make([]error, len(jobs))
	traces := make([]bytes.Buffer, len(jobs))
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, job := range jobs {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			var sink *obs.JSONLSink
			opts := Options{Seed: job.Seed}
			if trace != nil {
				sink = obs.NewJSONLSink(&traces[i])
				opts.Trace = obs.NewTracer(sink, nil)
			}
			start := time.Now()
			reports[i], errs[i] = job.Experiment.Run(opts)
			if errs[i] == nil && sink != nil {
				errs[i] = sink.Flush()
			}
			if errs[i] == nil {
				reports[i].Elapsed = time.Since(start)
			}
		}()
	}
	wg.Wait()
	for i, job := range jobs {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s (seed %d): %w", job.Experiment.Name, job.Seed, errs[i])
		}
		if trace != nil {
			if _, err := traces[i].WriteTo(trace); err != nil {
				return nil, fmt.Errorf("trace: %w", err)
			}
		}
	}
	return reports, nil
}
