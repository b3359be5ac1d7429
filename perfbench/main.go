// Command perfbench is the OSPREY benchmark. One invocation runs one
// workload in its own process, so the process-global obs registry and the
// resident-set peak belong to that workload alone:
//
//	perfbench --workload rt-daily --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with no spans recorded.
// --trace 1 is the separate traced run: it wraps spans around the
// benchmark's own calls into each layer and prints the per-layer metrics,
// including the tracing overhead against an untraced pass of the same
// workload. --workload all runs every workload, each in a child process.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it stamps the
// run with its toolchain, host, source and settings, and gives each
// end-to-end metric's sample count. Measurements that are reported but not
// gated go to standard error. A wrong output prints correct=false and
// exits 1. METRICS.md explains each workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is what every workload receives: the seed its inputs are generated
// from, how long to measure, a scratch directory for its logs, and the
// tracer (nil in untraced runs).
type env struct {
	seed    uint64
	seconds time.Duration
	workDir string
	tr      *tracer
	log     io.Writer
}

// outcome is one workload section's tally: operations attempted and
// failed, correctness violations, and named metric values.
type outcome struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]float64
	// samples is each end-to-end metric's sample count, printed with the
	// run's stamp.
	samples map[string]int
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// merge folds a section's tally and metrics into o.
func (o *outcome) merge(s *outcome) {
	o.attempted += s.attempted
	o.failed += s.failed
	o.problems = append(o.problems, s.problems...)
	for k, v := range s.metrics {
		o.metrics[k] = v
	}
}

// workload is one benchmark input set. measure is the untraced run that
// yields every end-to-end metric; layers is the traced pass over the
// layers the workload exercises. When own is set the pass is the
// invocation's own workload and also reports the runtime.* metrics and
// trace.overhead_pct.
type workload struct {
	name    string
	measure func(e *env) (*outcome, error)
	layers  func(e *env, own bool) (*outcome, error)
}

var workloads = []workload{
	{name: "rt-daily", measure: measureRtDaily, layers: layersRtDaily},
	{name: "gsa-study", measure: measureGSA, layers: layersGSA},
	{name: "task-stream", measure: measureTaskStream, layers: layersTaskStream},
	{name: "meta-stream", measure: measureMetaStream, layers: layersMetaStream},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fsyncPolicy is the WAL policy of every WAL-backed workload: with
// "always" each task's three mutations would each wait for a device flush,
// which would hide every CPU-side layer.
const fsyncPolicy = "interval"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: rt-daily, gsa-study, task-stream, meta-stream or all")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 15, "how long one run measures")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	workDir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, workDir: workDir, log: stderr}

	var out *outcome
	var catalogue []metricSpec
	if *traceFlag == 1 {
		e.tr = newTracer()
		out, err = traceAll(e, w)
		catalogue = perLayerMetrics
	} else {
		out, err = w.measure(e)
		if err == nil {
			logMetric(e, "failed_ratio", ratio(float64(out.failed), float64(out.attempted)), "ratio", int(out.attempted))
		}
		catalogue = endToEndMetrics
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range catalogue {
		v, ok := out.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			out.problem("metric %s not measured", m.Name)
			continue
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, k := range sortedKeys(out.metrics) {
		if _, listed := findMetric(catalogue, k); !listed {
			fmt.Fprintf(stderr, "perfbench: internal: unlisted metric %s\n", k)
			res.Correct = false
		}
	}
	if res.Attempted < 1 {
		res.Correct = false
		out.problem("no operation attempted")
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: %s: CHECK FAILED: %s\n", w.name, p)
	}
	if e.tr != nil {
		writeSpans(e, w.name)
	}
	st := stampFor(w.name, *seed, *seconds, *traceFlag)
	header := map[string]any{"stamp": st}
	if out.samples != nil {
		header["samples"] = out.samples
	}
	if err := printJSON(stdout, header); err != nil {
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// traceAll is the traced run. Every workload's layer pass runs, so every
// per-layer metric is measured in every traced run; the invocation's own
// workload runs first and alone reports the runtime.* metrics and the
// tracing overhead.
func traceAll(e *env, own workload) (*outcome, error) {
	total := newOutcome()
	order := []workload{own}
	for _, w := range workloads {
		if w.name != own.name {
			order = append(order, w)
		}
	}
	for _, w := range order {
		// The own workload gets half the run; the others share the rest.
		share := *e
		share.seconds = e.seconds / 2
		if w.name != own.name {
			share.seconds = e.seconds / time.Duration(2*(len(workloads)-1))
		}
		o, err := w.layers(&share, w.name == own.name)
		if err != nil {
			return nil, fmt.Errorf("%s layers: %w", w.name, err)
		}
		total.merge(o)
	}
	total.metrics["failed_ratio"] = ratio(float64(total.failed), float64(total.attempted))
	return total, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runAll runs every workload as a child process of this binary with the
// same flags, so no obs counter or resident-set peak crosses workloads.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var rest []string
	for i := 0; i < len(args); i++ {
		if args[i] == "--workload" || args[i] == "-workload" {
			i++
			continue
		}
		rest = append(rest, args[i])
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"--workload", w.name}, rest...)...)
		cmd.Stdout = stdout
		cmd.Stderr = stderr
		fmt.Fprintf(stdout, "== %s\n", w.name)
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				fmt.Fprintln(stderr, "perfbench:", err)
			}
			code = 1
		}
	}
	return code
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeSpans saves the traced run's span records next to the build
// outputs, where they survive the run for inspection.
func writeSpans(e *env, name string) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(e.log, "perfbench: spans:", err)
		return
	}
	e.tr.mu.Lock()
	b, err := json.Marshal(e.tr.spans)
	e.tr.mu.Unlock()
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, e.seed)), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(e.log, "perfbench: spans:", err)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
