// Command netupdate regenerates the paper's evaluation figures.
//
// Usage:
//
//	netupdate -list
//	netupdate -experiment fig6 [-seed 1] [-quick] [-csv dir] [-seeds n]
//	          [-trace-out trace.jsonl]
//	netupdate -all [-seed 1] [-quick] [-csv dir]
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
	"os"
	"path/filepath"
	"sort"
	"time"

	"netupdate/internal/experiments"
	"netupdate/internal/obs"
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
		quick    = fs.Bool("quick", false, "shrink experiments for a fast smoke run")
		csv      = fs.String("csv", "", "also write each table as CSV into this directory")
		seeds    = fs.Int("seeds", 1, "repeat the experiment under this many consecutive seeds and summarize headlines")
		traceOut = fs.String("trace-out", "", "write scheduling traces of all simulated runs to this JSONL file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netupdate: trace-out: %v\n", err)
			return 1
		}
		sink := obs.NewJSONLSink(f)
		tracer = obs.NewTracer(sink, nil)
		defer func() {
			if err := sink.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "netupdate: trace-out: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "netupdate: trace-out: %v\n", err)
			}
		}()
	}

	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-16s %s\n", e.Name, e.Summary)
		}
		return 0
	case *all:
		for _, e := range experiments.All() {
			if err := runOne(e, *seed, *quick, *csv, tracer); err != nil {
				fmt.Fprintf(os.Stderr, "netupdate: %s: %v\n", e.Name, err)
				return 1
			}
		}
		return 0
	case *name != "":
		e, ok := experiments.Find(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "netupdate: unknown experiment %q (use -list)\n", *name)
			return 2
		}
		if *seeds > 1 {
			if err := runSeeds(e, *seed, *seeds, *quick, tracer); err != nil {
				fmt.Fprintf(os.Stderr, "netupdate: %s: %v\n", e.Name, err)
				return 1
			}
			return 0
		}
		if err := runOne(e, *seed, *quick, *csv, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "netupdate: %s: %v\n", e.Name, err)
			return 1
		}
		return 0
	default:
		fs.Usage()
		return 2
	}
}

func runOne(e experiments.Experiment, seed int64, quick bool, csvDir string, tracer *obs.Tracer) error {
	start := time.Now()
	rep, err := e.Run(experiments.Options{Seed: seed, Quick: quick, Trace: tracer})
	if err != nil {
		return err
	}
	if _, err := rep.WriteTo(os.Stdout); err != nil {
		return err
	}
	if csvDir != "" {
		if err := writeCSVs(rep, csvDir); err != nil {
			return err
		}
	}
	fmt.Printf("(%s completed in %v)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	return nil
}

// runSeeds repeats the experiment under n consecutive seeds and prints a
// mean/min/max summary of every headline metric.
func runSeeds(e experiments.Experiment, seed int64, n int, quick bool, tracer *obs.Tracer) error {
	sums := make(map[string]float64)
	mins := make(map[string]float64)
	maxs := make(map[string]float64)
	counts := make(map[string]int)
	var order []string
	for i := 0; i < n; i++ {
		rep, err := e.Run(experiments.Options{Seed: seed + int64(i), Quick: quick, Trace: tracer})
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed+int64(i), err)
		}
		fmt.Printf("-- seed %d --\n", seed+int64(i))
		if _, err := rep.WriteTo(os.Stdout); err != nil {
			return err
		}
		for k, v := range rep.Headlines {
			if counts[k] == 0 {
				order = append(order, k)
				mins[k], maxs[k] = v, v
			}
			sums[k] += v
			counts[k]++
			if v < mins[k] {
				mins[k] = v
			}
			if v > maxs[k] {
				maxs[k] = v
			}
		}
	}
	sort.Strings(order)
	fmt.Printf("\n== %s headline summary over %d seeds (mean / min / max) ==\n", e.Name, n)
	for _, k := range order {
		fmt.Printf("  %-48s %8.3f / %8.3f / %8.3f\n", k, sums[k]/float64(counts[k]), mins[k], maxs[k])
	}
	return nil
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
