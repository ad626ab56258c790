// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload through the public functions of the internal
// packages (topogen, churn, rechord, routing, dht, wire), checks every
// result against an oracle outside the timed phase, and prints the
// metrics named in BENCHMARK.json. From the repository root:
//
//	bash perfbench/run.sh --workload converge --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the last line of standard output carries the
// end-to-end metrics; with --trace 1 it carries the per-layer split
// from a traced run (spans recorded around each call into a layer).
// Earlier lines carry the environment stamp, the exact counts and the
// workload's extra figures. See README.md for what each metric means
// on each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// stateDir holds the exact-count ledger and the span dumps; empty
	// disables both.
	stateDir string
}

// workloads maps each workload name to its set-up.
var workloads = map[string]setupFunc{
	"converge": setupConverge,
	"serve":    setupServe,
	"churn":    setupChurn,
	"wire":     setupWire,
}

func main() {
	// One P: on a shared 2-vCPU host, runs that use both cores (the
	// barrier's workers, two wire ranks) swing 30-90% in wall time and
	// op latency from run to run as the hypervisor steals one core or
	// the other, far beyond any bound; on one P wall time tracks CPU
	// time. The parallel paths are left to the package benchmarks.
	// The process is pinned to each CPU in turn (pin.go).
	runtime.GOMAXPROCS(1)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: converge, serve, churn or wire")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measured time per pass, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports the per-layer split")
	fs.StringVar(&cfg.stateDir, "state-dir", "", "directory for the exact-count ledger and span dumps (optional)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1

	env := stamp()
	printLine(stdout, map[string]any{"env": env, "workload": cfg.workload, "seed": cfg.seed, "trace": trace})
	rep, err := runWorkload(cfg, w)
	if err != nil {
		return err
	}
	if rep.checkErr == nil {
		rep.checkErr = checkLedger(cfg, env, rep.exact)
	}
	printLine(stdout, map[string]any{"exact": rep.exact, "extra": rep.extra})
	if cfg.trace && cfg.stateDir != "" {
		if err := rep.dumpSpans(cfg); err != nil {
			return err
		}
	}

	metrics := rep.e2e
	if cfg.trace {
		metrics = rep.layer
	}
	printLine(stdout, map[string]any{
		"correct":   rep.checkErr == nil,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if rep.checkErr != nil {
		return fmt.Errorf("%s: output check failed: %w", cfg.workload, rep.checkErr)
	}
	return nil
}

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a run produces: the figures for both passes, the
// exact counts of each unit (identical on every run of one seed and
// build), and the operation totals.
type report struct {
	e2e       map[string]metric
	layer     map[string]metric
	exact     []map[string]int64
	extra     map[string]any
	attempted int64
	failed    int64
	tracer    *tracer
	// checkErr is the first failed output check; the run then reports
	// correct=false and exits non-zero.
	checkErr error
}

func newReport() *report {
	return &report{
		e2e:   map[string]metric{},
		layer: map[string]metric{},
		extra: map[string]any{},
	}
}

func (r *report) setE2E(name string, v float64, unit string) {
	r.e2e[name] = metric{Value: v, Unit: unit}
}

func (r *report) setLayer(name string, v float64, unit string) {
	r.layer[name] = metric{Value: v, Unit: unit}
}

// printLine writes v as one JSON line. Map keys come out sorted, so
// lines are stable across runs.
func printLine(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and numbers are printed
	}
	fmt.Fprintln(w, string(b))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
