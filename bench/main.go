// Command bench is the repo's end-to-end benchmark: it hosts the real
// deployment in-process (the cmd/updated construction), drives it over
// loopback with the binary codec, and reports nine end-to-end metrics
// per workload plus per-layer attribution. See README.md.
//
//	go run . -seed 1                      # whole suite: 3 workloads, layers, traced pass
//	go run . -workload paper_plan -seed 1 -seconds 20 -trace 0   # one untraced pass
//	go run . -workload paper_plan -seed 1 -seconds 20 -trace 1   # per-layer metrics
//	go run . -aa 5                        # A/A: two sets of 5 seeds per workload
//
// (run from bench/, or from the repo root through bench/run.sh). The
// last line of standard output of a single-workload run is one JSON
// object {correct, attempted, failed, metrics}; everything meant for
// people goes to standard error. Any failed self-check exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	aa       int
	layers   bool
	tmp      string
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.workload, "workload", "", "run one workload (paper_plan, durable_ingest, gateway_mix); empty runs the whole suite")
	fs.Int64Var(&opt.seed, "seed", 1, "seed of the generated inputs and the deployment's world")
	fs.IntVar(&opt.seconds, "seconds", 20, "length of the paced open-loop phase (the traced pass uses half)")
	fs.IntVar(&opt.trace, "trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass plus layer micro-benchmarks (per-layer metrics)")
	fs.IntVar(&opt.aa, "aa", 0, "A/A mode: run every workload untraced on N seeds, twice, and compare the two sets against the bounds")
	fs.BoolVar(&opt.layers, "layers", false, "run only the layer micro-benchmarks")
	fs.StringVar(&opt.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "parent directory of the WAL directories (the fsync target)")
	fs.StringVar(&opt.out, "out", defaultOut(), "directory for trace-<workload>.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if opt.seconds < 1 || opt.trace < 0 || opt.trace > 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	if err := os.MkdirAll(opt.tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var err error
	ok := true
	switch {
	case opt.aa > 0:
		ok, err = runAA(opt, stdout, stderr)
	case opt.layers:
		var m measures
		if m, err = runLayers(opt.seed, opt.tmp); err == nil {
			printMeasures(stdout, "layers", m, perLayer)
		}
	case opt.workload != "":
		ok, err = runOne(opt, stdout, stderr)
	default:
		ok, err = runSuite(opt, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// defaultOut is bench/out whether the working directory is the repo
// root (bench/run.sh) or bench/ itself (go run .).
func defaultOut() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// provenance labels every output with where its numbers came from.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"paced_seconds"`
	// WALFS is the filesystem under the WAL directories. fsync latency
	// here is the sandbox's disk, not a production device.
	WALFS  string `json:"wal_fs"`
	WALDir string `json:"wal_dir"`
}

func newProvenance(opt options) provenance {
	return provenance{
		Commit: gitCommit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: opt.seed, Seconds: opt.seconds, WALFS: fsType(opt.tmp), WALDir: opt.tmp,
	}
}

// gitCommit is the checkout's HEAD, or "unknown" outside a git
// repository (the driver's checkouts are plain directories).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// value is one reported metric on the wire.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the single-workload result the driver parses.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// pick projects m onto a metric table; a metric the pass did not
// produce reads 0 (a layer the workload does not execute).
func pick(m measures, defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{Value: m[d.name], Unit: d.unit}
	}
	return out
}

// present is pick without the zeros for metrics m does not hold.
func present(m measures, defs []metricDef) map[string]value {
	out := map[string]value{}
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			out[d.name] = value{Value: v, Unit: d.unit}
		}
	}
	return out
}

func printMeasures(w io.Writer, title string, m measures, defs []metricDef) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}

func (r *runResult) describe(w io.Writer, name string) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d; phase wall s:", name, r.attempted, r.failed)
	for _, p := range []string{"setup", "drain", "recover", "paced"} {
		fmt.Fprintf(w, " %s %.2f", p, r.phases[p])
	}
	fmt.Fprintln(w)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
}

// runPass runs one pass over w: untraced at full shape (every end-to-end
// metric must come out measured), or traced, shortened, with the budget
// table printed and the spans written under opt.out.
func runPass(w *workload, opt options, traced bool, stderr io.Writer) (*runResult, error) {
	cfg := runConfig{w: w, seed: opt.seed, paced: time.Duration(opt.seconds) * time.Second, tmp: opt.tmp}
	if traced {
		cfg.tr, cfg.short, cfg.paced = newTracer(w), true, cfg.paced/2
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return nil, err
	}
	if traced {
		cfg.tr.report(res, stderr)
		if err := cfg.tr.write(opt.out); err != nil {
			return nil, err
		}
	} else {
		for _, d := range endToEnd {
			if res.m[d.name] == 0 {
				res.failf("end-to-end metric %s was not measured", d.name)
			}
		}
	}
	return res, nil
}

func (r *runResult) contract(defs []metricDef) contractLine {
	return contractLine{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: pick(r.m, defs)}
}

// runOne is the driver's entry: one workload, one pass, one result line.
func runOne(opt options, stdout, stderr io.Writer) (bool, error) {
	w, err := findWorkload(opt.workload)
	if err != nil {
		return false, err
	}
	pj, err := json.Marshal(newProvenance(opt))
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", pj)
	res, err := runPass(w, opt, opt.trace == 1, stderr)
	if err != nil {
		return false, err
	}
	defs := endToEnd
	if opt.trace == 1 {
		defs = perLayer
		layers, err := runLayers(opt.seed, opt.tmp)
		if err != nil {
			return false, fmt.Errorf("layers: %w", err)
		}
		for k, v := range layers {
			res.m[k] = v
		}
	}
	res.describe(stderr, w.name)
	printMeasures(stderr, w.name, res.m, append(append([]metricDef(nil), endToEnd...), perLayer...))
	line, err := json.Marshal(res.contract(defs))
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return len(res.failures) == 0, nil
}

// suiteReport is the whole-suite document printed by `bench -seed N`.
type suiteReport struct {
	Provenance provenance                    `json:"provenance"`
	Correct    bool                          `json:"correct"`
	Notes      []string                      `json:"notes"`
	Bounds     map[string]float64            `json:"bounds"`
	Layers     map[string]value              `json:"layers"`
	Workloads  map[string]*workloadReport    `json:"workloads"`
	PhaseWall  map[string]map[string]float64 `json:"phase_wall_s"`
	Failures   map[string][]string           `json:"failures,omitempty"`
}

type workloadReport struct {
	Why       string           `json:"why"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
}

// runSuite runs every workload untraced, the layer micro-benchmarks
// once, then every workload traced, and prints one JSON document.
func runSuite(opt options, stdout, stderr io.Writer) (bool, error) {
	rep := suiteReport{
		Provenance: newProvenance(opt), Correct: true,
		Workloads: map[string]*workloadReport{}, Bounds: map[string]float64{},
		Failures: map[string][]string{}, PhaseWall: map[string]map[string]float64{},
		Notes: []string{
			"end-to-end numbers come from the untraced pass; per-layer B/C numbers from the shortened traced pass (1 drain round, half the paced length)",
			"wal.* fsync figures are this sandbox's disk (see provenance.wal_fs), not production disk latency",
			"under the gateway, engine-internal span stages are out of reach: shard.WorldConfig exposes no span sink",
		},
	}
	for _, d := range endToEnd {
		rep.Bounds[d.name] = d.bound
	}
	layers, err := runLayers(opt.seed, opt.tmp)
	if err != nil {
		return false, fmt.Errorf("layers: %w", err)
	}
	printMeasures(stderr, "layers (direct timed calls)", layers, perLayer)
	for _, w := range workloads {
		plain, err := runPass(w, opt, false, stderr)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		plain.describe(stderr, w.name)
		printMeasures(stderr, w.name+" end-to-end (untraced)", plain.m, endToEnd)
		traced, err := runPass(w, opt, true, stderr)
		if err != nil {
			return false, fmt.Errorf("%s traced: %w", w.name, err)
		}
		traced.describe(stderr, w.name+" (traced)")
		fmt.Fprintf(stderr, "  bench.trace_overhead_pct %.1f (traced vs untraced done_p50_ms)\n",
			(traced.m["done_p50_ms"]/plain.m["done_p50_ms"]-1)*100)
		printMeasures(stderr, w.name+" per-layer (traced pass)", traced.m, perLayer)
		rep.Workloads[w.name] = &workloadReport{
			Why: w.why, Attempted: plain.attempted + traced.attempted, Failed: plain.failed + traced.failed,
			EndToEnd: present(plain.m, endToEnd), PerLayer: present(traced.m, perLayer),
		}
		rep.PhaseWall[w.name] = plain.phases
		if fails := append(plain.failures, traced.failures...); len(fails) > 0 {
			rep.Failures[w.name], rep.Correct = fails, false
		}
	}
	rep.Layers = present(layers, perLayer)
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return false, err
	}
	return rep.Correct, nil
}
