// Command tracegen emits synthetic workloads as JSON Lines: one update
// event per line, each with its flow specs (host indices, demand, size).
// The output can seed external tools or be inspected to understand the
// traffic models (see internal/trace for the Yahoo!-substitution note).
//
// Usage:
//
//	tracegen [-k 8] [-events 30] [-min-flows 10] [-max-flows 100]
//	         [-trace yahoo|random] [-seed 1] [-out trace.jsonl]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"netupdate/internal/ctl"
	"netupdate/internal/sim"
	"netupdate/internal/trace"
)

// eventJSON is one update event in the emitted trace: its ID and the
// spec that submits it (what updatectl submit reads back).
type eventJSON struct {
	ID int64 `json:"id"`
	ctl.EventSpec
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		k         = fs.Int("k", 8, "fat-tree arity (host space = k^3/4)")
		events    = fs.Int("events", 30, "number of update events")
		minFlows  = fs.Int("min-flows", 10, "minimum flows per event")
		maxFlows  = fs.Int("max-flows", 100, "maximum flows per event")
		traceName = fs.String("trace", "yahoo", "traffic model: yahoo|random")
		seed      = fs.Int64("seed", 1, "random seed")
		out       = fs.String("out", "", "output path (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	model, err := trace.ParseModel(*traceName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		return 2
	}

	world, err := sim.Genesis{K: *k, Seed: *seed, Model: model}.Build(0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		return 1
	}

	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "tracegen: close: %v\n", err)
			}
		}()
		w = f
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range world.Gen.Events(*events, *minFlows, *maxFlows) {
		if err := enc.Encode(eventJSON{ID: int64(ev.ID), EventSpec: ctl.SpecOf(ev)}); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: encode: %v\n", err)
			return 1
		}
	}
	if err := bw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: flush: %v\n", err)
		return 1
	}
	return 0
}
