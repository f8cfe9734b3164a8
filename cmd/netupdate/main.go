// Command netupdate regenerates the paper's evaluation figures.
//
// Usage:
//
//	netupdate -list
//	netupdate -experiment fig6 [-seed 1] [-csv dir | -seeds n]
//	          [-trace-out trace.jsonl]
//	netupdate -all [-seed 1] [-csv dir] [-trace-out trace.jsonl]
//
// Experiments run at the paper's size only, side by side (at most
// GOMAXPROCS at a time, through experiments.RunAll), and print in -list
// order.
//
// With -trace-out, every event-level simulation run writes its
// scheduling trace (arrivals, per-round decisions, event lifecycle
// spans; see internal/obs) as JSON Lines to the given file. Runs are
// delimited by their leading "run" records. Traces are deterministic:
// the same seed and flags reproduce the file byte for byte.
//
// With -seeds n > 1, the experiment runs n times under seeds
// seed..seed+n-1 and a mean/min/max summary of every headline metric is
// printed after the per-seed reports — checking that the headline numbers
// are not single-run artifacts.
//
// With -csv, every table is additionally written as a CSV file into the
// given directory (one file per table, named <experiment>_<n>.csv), ready
// for plotting.
//
// Each experiment prints the rows/series of the corresponding figure of
// "An Event-Level Abstraction for Achieving Efficiency and Fairness in
// Network Update" (ICDCS 2017), plus headline numbers compared against the
// paper's claims in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"netupdate/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("netupdate", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list available experiments")
		name     = fs.String("experiment", "", "experiment to run (see -list)")
		all      = fs.Bool("all", false, "run every experiment")
		seed     = fs.Int64("seed", 1, "random seed (equal seeds reproduce runs exactly)")
		csv      = fs.String("csv", "", "also write each table as CSV into this directory")
		seeds    = fs.Int("seeds", 1, "repeat the experiment under this many consecutive seeds and summarize headlines")
		traceOut = fs.String("trace-out", "", "write scheduling traces of all simulated runs to this JSONL file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *seeds < 1:
		return usageError("-seeds must be at least 1")
	case *seeds > 1 && *all:
		return usageError("-seeds > 1 applies to one -experiment, not -all")
	case *seeds > 1 && *csv != "":
		return usageError("-seeds > 1 writes no CSV; drop -csv or -seeds")
	}

	var exps []experiments.Experiment
	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-16s %s\n", e.Name, e.Summary)
		}
		return 0
	case *all:
		exps = experiments.All()
	case *name != "":
		e, ok := experiments.Find(*name)
		if !ok {
			return usageError(fmt.Sprintf("unknown experiment %q (use -list)", *name))
		}
		exps = []experiments.Experiment{e}
	default:
		fs.Usage()
		return 2
	}
	var jobs []experiments.Job
	for _, e := range exps {
		for i := range *seeds {
			jobs = append(jobs, experiments.Job{Experiment: e, Seed: *seed + int64(i)})
		}
	}
	if err := runJobs(jobs, *seeds > 1, *csv, *traceOut); err != nil {
		fmt.Fprintf(os.Stderr, "netupdate: %v\n", err)
		return 1
	}
	return 0
}

func usageError(msg string) int {
	fmt.Fprintf(os.Stderr, "netupdate: %s\n", msg)
	return 2
}

// runJobs runs the jobs through experiments.RunAll and prints their
// reports in job order: each with its wall time, or, for a seed sweep,
// under a per-seed header and followed by the headline summary.
func runJobs(jobs []experiments.Job, sweep bool, csvDir, traceOut string) error {
	var trace io.Writer
	closeTrace := func() error { return nil }
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		trace, closeTrace = f, f.Close
	}
	reports, err := experiments.RunAll(jobs, trace)
	if cerr := closeTrace(); err == nil && cerr != nil {
		err = fmt.Errorf("trace-out: %w", cerr)
	}
	if err != nil {
		return err
	}
	for i, rep := range reports {
		if sweep {
			fmt.Printf("-- seed %d --\n", jobs[i].Seed)
		}
		if _, err := rep.WriteTo(os.Stdout); err != nil {
			return err
		}
		if csvDir != "" {
			if err := writeCSVs(rep, csvDir); err != nil {
				return fmt.Errorf("%s: %w", rep.Name, err)
			}
		}
		if !sweep {
			fmt.Printf("(%s completed in %v)\n\n", rep.Name, rep.Elapsed.Round(time.Millisecond))
		}
	}
	if sweep {
		summarize(reports)
	}
	return nil
}

// summarize prints a mean/min/max summary of every headline metric of a
// seed sweep's reports.
func summarize(reports []*experiments.Report) {
	sums := make(map[string]float64)
	mins := make(map[string]float64)
	maxs := make(map[string]float64)
	counts := make(map[string]int)
	var order []string
	for _, rep := range reports {
		for k, v := range rep.Headlines {
			if counts[k] == 0 {
				order = append(order, k)
				mins[k], maxs[k] = v, v
			}
			sums[k] += v
			counts[k]++
			mins[k] = min(mins[k], v)
			maxs[k] = max(maxs[k], v)
		}
	}
	sort.Strings(order)
	fmt.Printf("\n== %s headline summary over %d seeds (mean / min / max) ==\n", reports[0].Name, len(reports))
	for _, k := range order {
		fmt.Printf("  %-48s %8.3f / %8.3f / %8.3f\n", k, sums[k]/float64(counts[k]), mins[k], maxs[k])
	}
}

// writeCSVs dumps each of the report's tables as <name>_<n>.csv in dir.
func writeCSVs(rep *experiments.Report, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("csv dir: %w", err)
	}
	for i, table := range rep.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_%d.csv", rep.Name, i+1))
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("csv: %w", err)
		}
		writeErr := table.WriteCSV(f)
		if closeErr := f.Close(); writeErr == nil {
			writeErr = closeErr
		}
		if writeErr != nil {
			return fmt.Errorf("csv %s: %w", path, writeErr)
		}
	}
	return nil
}
