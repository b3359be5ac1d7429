package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricSpec names one printed metric and its unit. BENCHMARK.json lists
// the same names; a test keeps the two in step.
type metricSpec struct {
	Name string
	Unit string
}

// endToEndMetrics are printed by every untraced run. Each workload maps
// "operation" to its own unit of work (METRICS.md): a daily cycle, a
// replicated study, a task, a metadata request. Rates and tail latencies
// move with the CPU steal of a shared host far more than with the program,
// so they are logged to standard error and kept as per-layer metrics, not
// gated.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
	{"latency_p50_ms", "ms"},
}

// perLayerMetrics are printed by every traced run.
var perLayerMetrics = []metricSpec{
	// Task path ladder and the emews layer (task-stream).
	{"ladder.db_us_per_task", "us"},
	{"ladder.wal_us_per_task", "us"},
	{"ladder.socket_us_per_task", "us"},
	{"ladder.routing_us_per_task", "us"},
	{"emews.client.submit_batch_p50_us", "us"},
	{"emews.client.pop_batch_p50_us", "us"},
	{"emews.client.finish_batch_p50_us", "us"},
	{"emews.net.request_p50_us", "us"},
	{"emews.pop.wait_p99_ms", "ms"},
	{"emews.tasks.stale_rejected", "count"},
	{"emews.tasks.requeued", "count"},
	{"task.throughput_per_s", "1/s"},
	{"task.turnaround_p99_ms", "ms"},
	{"wal.emews.appends_per_task", "count"},
	{"wal.emews.bytes_per_task", "B"},
	{"wal.emews.fsyncs", "count"},
	// AERO path ladder, watch hub and AERO WAL (meta-stream).
	{"ladder.store_us_per_op", "us"},
	{"ladder.handler_us_per_op", "us"},
	{"ladder.transport_us_per_op", "us"},
	{"aero.http.request_p50_us", "us"},
	{"aero.watch.published", "count"},
	{"aero.watch.dropped", "count"},
	{"meta.latency_p99_ms", "ms"},
	{"watch.lag_p50_ms", "ms"},
	{"watch.lag_p99_ms", "ms"},
	{"gen.lag_p99_ms", "ms"},
	{"wal.aero.appends_per_write", "count"},
	{"wal.aero.bytes_per_write", "B"},
	// Use case 1: ingest, R(t) estimation, scheduler (rt-daily).
	{"aero.ingest.poll_p50_ms", "ms"},
	{"aero.analysis.wait_p50_ms", "ms"},
	{"rt.goldstein_p50_ms", "ms"},
	{"rt.ensemble_ms", "ms"},
	{"sched.job.wait_p50_ms", "ms"},
	{"sched.job.run_p50_ms", "ms"},
	{"aero.flows.triggered", "count"},
	{"aero.analysis.runs", "count"},
	// Use case 2: MUSIC, GP, linear algebra, MetaRVM, pool (gsa-study).
	{"music.next_point_p50_ms", "ms"},
	{"music.observe_p50_ms", "ms"},
	{"music.indices_ms", "ms"},
	{"gp.fit_ms", "ms"},
	{"linalg.cholesky_ms", "ms"},
	{"gp.predict_batch_us_per_point", "us"},
	{"metarvm.eval_p50_ms", "ms"},
	{"emews.pool.util_pct", "%"},
	{"parallel.for.inline_ratio", "ratio"},
	{"parallel.for.imbalance_p50_us", "us"},
	{"linalg.chol.jitter_retries", "count"},
	// The invocation's own workload, per operation.
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.goroutines_leaked", "count"},
	{"trace.overhead_pct", "%"},
	{"failed_ratio", "ratio"},
}

func findMetric(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// stamp records what a result was measured on and with.
type stamp struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        int    `json:"trace"`
	FsyncPolicy  string `json:"fsync_policy"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func stampFor(name string, seed uint64, seconds, trace int) stamp {
	return stamp{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		FsyncPolicy:  fsyncPolicy,
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Commit:       vcsRevision(),
		SourceDigest: sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// vcsRevision is the commit the binary was built from, when it was built
// inside a git work tree; a plain source checkout has none.
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest identifies the code under test without git: a SHA-256 over
// the path and content of every Go source and module file below root,
// build outputs excluded.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
