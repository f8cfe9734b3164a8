// Command fattree inspects the Fat-Tree substrate: topology statistics,
// path-set sizes, and the link-utilization distribution after a background
// fill — useful for sanity-checking workload setups before running
// experiments.
//
// Usage:
//
//	fattree [-k 8] [-util 0.6] [-seed 1] [-trace yahoo|random] [-snapshot state.json]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"netupdate/internal/sim"
	"netupdate/internal/snapshot"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("fattree", flag.ContinueOnError)
	var (
		k         = fs.Int("k", 8, "fat-tree arity (even)")
		util      = fs.Float64("util", 0.6, "background utilization target (0 disables)")
		seed      = fs.Int64("seed", 1, "random seed")
		traceName = fs.String("trace", "yahoo", "background traffic model: yahoo|random")
		snapOut   = fs.String("snapshot", "", "write the loaded state as a JSON snapshot to this path")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	model, err := trace.ParseModel(*traceName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fattree: %v\n", err)
		return 2
	}
	w, err := sim.Genesis{K: *k, Seed: *seed, Model: model}.Build(*util)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fattree: %v\n", err)
		return 1
	}
	ft, net, g := w.FatTree, w.Net, w.Net.Graph()
	fmt.Fprintf(stdout, "fat-tree k=%d: %d switches (%d core, %d agg, %d edge), %d hosts, %d directed links\n",
		ft.K, ft.NumSwitches(), len(ft.Cores()), ft.K*(ft.K/2), ft.K*(ft.K/2), ft.NumHosts(), g.NumLinks())

	prov := net.Provider()
	sameEdge := prov.Paths(ft.Host(0, 0, 0), ft.Host(0, 0, 1))
	samePod := prov.Paths(ft.Host(0, 0, 0), ft.Host(0, 1, 0))
	crossPod := prov.Paths(ft.Host(0, 0, 0), ft.Host(1, 0, 0))
	fmt.Fprintf(stdout, "ECMP path sets: same-edge %d, same-pod %d, cross-pod %d\n",
		len(sameEdge), len(samePod), len(crossPod))

	if *util <= 0 {
		return 0
	}
	if net.Utilization() < *util {
		fmt.Fprintf(os.Stderr, "fattree: background fill stopped early: target %.3f unreachable\n", *util)
	}
	fmt.Fprintf(stdout, "background: %d flows placed, utilization %.3f\n", len(w.Background), net.Utilization())

	var utils []float64
	for i := 0; i < g.NumLinks(); i++ {
		utils = append(utils, g.Link(topology.LinkID(i)).Utilization())
	}
	sort.Float64s(utils)
	pct := func(p int) float64 { return utils[(len(utils)-1)*p/100] }
	fmt.Fprintf(stdout, "link utilization: p10=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f\n",
		pct(10), pct(50), pct(90), pct(99), pct(100))
	saturated := 0
	for _, u := range utils {
		if u > 0.95 {
			saturated++
		}
	}
	fmt.Fprintf(stdout, "links above 95%% utilization: %d of %d\n", saturated, len(utils))

	if *snapOut != "" {
		f, err := os.Create(*snapOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fattree: %v\n", err)
			return 1
		}
		writeErr := snapshot.Capture(net).Write(f)
		if closeErr := f.Close(); writeErr == nil {
			writeErr = closeErr
		}
		if writeErr != nil {
			fmt.Fprintf(os.Stderr, "fattree: snapshot: %v\n", writeErr)
			return 1
		}
		fmt.Fprintf(stdout, "snapshot written to %s\n", *snapOut)
	}
	return 0
}
