// Command perfbench is segrid's benchmark harness. It runs one named
// workload for a fixed time, checks every answer with an independent oracle,
// and prints the workload's metrics by name with their units; the last line
// of standard output is a JSON object with the keys correct, attempted,
// failed and metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload verify|synth|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// alternates traced and untraced operations and reports the per-layer
// metrics, derived from spans recorded around each call into a layer, plus
// the tracing overhead. WORKLOADS.md records what each workload stresses and
// which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Exit codes: a run that answered anything wrong exits exitWrong after
// printing its result; a run that could not complete exits exitError without
// one.
const (
	exitOK    = 0
	exitError = 1
	exitWrong = 2
)

// maxProcs is the CPU budget the harness and the program share.
const maxProcs = 2

// setupRepeats is how many times each run performs its set-up; setup_s is
// the median.
const setupRepeats = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	out     string // directory for temporary files and the span dump
}

// metric is one reported figure.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int // sample count behind a percentile, 0 otherwise
}

// report is what a workload returns: the operation counts and both metric
// sets. Only the set the run's trace mode selects is printed.
type report struct {
	attempted, failed int
	firstFailure      string
	endToEnd          []metric
	perLayer          []metric
	spans             []Span
}

type workloadFunc func(cfg config) (*report, error)

var workloads = map[string]workloadFunc{
	"verify": runVerify,
	"synth":  runSynth,
	"serve":  runServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: verify, synth or serve")
	seed := fs.Uint64("seed", 1, "seed for input generation")
	seconds := fs.Int("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	out := fs.String("out", ".bench_build", "directory for temporary files and span dumps")
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: perfbench --workload verify|synth|serve --seed N --seconds S --trace 0|1")
		return exitError
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return exitError
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, out: *out}
	rep, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return exitError
	}
	if cfg.traced {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", *name, cfg.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return exitError
		}
		fmt.Fprintf(stdout, "# %d spans written to %s\n", len(rep.spans), path)
	}
	if err := printReport(stdout, *name, rep, cfg.traced); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return exitError
	}
	if rep.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed; first: %s\n",
			*name, rep.failed, rep.attempted, rep.firstFailure)
		return exitWrong
	}
	return exitOK
}

// printReport writes the human-readable table, then the JSON result line.
func printReport(w io.Writer, name string, rep *report, traced bool) error {
	ms := rep.endToEnd
	if traced {
		ms = rep.perLayer
	}
	fmt.Fprintf(w, "# workload %s: %d attempted, %d failed (fail_ratio %.4f)\n",
		name, rep.attempted, rep.failed, ratio(float64(rep.failed), float64(rep.attempted)))
	out := make(map[string]jsonMetric, len(ms))
	for _, m := range ms {
		if _, dup := out[m.Name]; dup {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		line := fmt.Sprintf("%-34s %14.6g %s", m.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Fprintln(w, line)
		out[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	if rep.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, out}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measureSetup runs setup setupRepeats times, releasing every state but the
// last, and returns that state with the median set-up time in seconds.
func measureSetup[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var (
		state T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			release(state)
		}
		start := time.Now()
		s, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		state = s
	}
	sort.Float64s(times)
	return state, times[len(times)/2], nil
}
