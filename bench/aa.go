package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runAA demonstrates the acceptance rule on identical code: every
// workload runs untraced on seeds seed..seed+N-1, twice, each run in a
// fresh process like the driver's. For each metric × workload it prints
// both sets' medians and quartile spreads (statistics.quantiles(n=4),
// as a share of the median), the relative gap of the second median from
// the first in the metric's worse direction, and PASS when the spreads
// (set-up time excepted) and the gap stay inside the bound.
func runAA(opt options, stdout, stderr io.Writer) (bool, error) {
	if opt.aa < 2 {
		return false, fmt.Errorf("-aa needs at least 2 seeds per set")
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	type set = map[string][]float64 // metric -> values over seeds
	sets := map[string]*[2]set{}
	for _, w := range workloads {
		sets[w.name] = &[2]set{{}, {}}
	}
	for s := 0; s < 2; s++ {
		for i := 0; i < opt.aa; i++ {
			for _, w := range workloads {
				seed := opt.seed + int64(i)
				fmt.Fprintf(stderr, "aa: set %d seed %d %s\n", s+1, seed, w.name)
				cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.Itoa(opt.seconds), "-trace", "0", "-tmp", opt.tmp)
				var out bytes.Buffer
				cmd.Stdout, cmd.Stderr = &out, io.Discard
				if err := cmd.Run(); err != nil {
					return false, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				line, err := lastLine(&out)
				if err != nil {
					return false, err
				}
				var res contractLine
				if err := json.Unmarshal(line, &res); err != nil {
					return false, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				if !res.Correct {
					return false, fmt.Errorf("%s seed %d: run reported incorrect", w.name, seed)
				}
				for name, v := range res.Metrics {
					sets[w.name][s][name] = append(sets[w.name][s][name], v.Value)
				}
			}
		}
	}

	ok := true
	fmt.Fprintf(stdout, "%-15s %-20s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "iqr A", "iqr B", "gap", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[w.name][0][d.name], sets[w.name][1][d.name]
			ma, mb := median(a), median(b)
			spread := func(xs []float64, m float64) float64 {
				return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
			}
			sa, sb := spread(a, ma), spread(b, mb)
			gap := (mb - ma) / ma // positive = B worse, for "lower is better"
			if d.better == "higher" {
				gap = -gap
			}
			verdict := "PASS"
			if gap > d.bound || (d.name != "setup_s" && (sa > d.bound || sb > d.bound)) {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(stdout, "%-15s %-20s %12.4f %12.4f %7.1f%% %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				w.name, d.name, ma, mb, sa*100, sb*100, gap*100, d.bound*100, verdict)
		}
	}
	return ok, nil
}

func lastLine(r io.Reader) ([]byte, error) {
	var last []byte
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if last == nil {
		return nil, fmt.Errorf("no output")
	}
	return last, sc.Err()
}
