package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"osprey/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as numpy's default). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// durationsMS converts a sample of durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// A run builds its deployment at least setupRepeats times, and keeps
// building until setupMinTime has been spent on it (at most
// setupMaxRepeats times), so that even a set-up of microseconds reports a
// median over enough samples to repeat from run to run.
const (
	setupRepeats    = 15
	setupMinTime    = 250 * time.Millisecond
	setupMaxRepeats = 2000
)

// repeatSetup builds a deployment repeatedly, tearing down all but the
// last, and returns it with every build time in seconds.
func repeatSetup[T any](n int, open func() (T, error), teardown func(T) error) (T, []float64, error) {
	var times []float64
	var spent time.Duration
	for {
		start := time.Now()
		s, err := open()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		took := time.Since(start)
		times = append(times, took.Seconds())
		spent += took
		if len(times) >= n && (spent >= setupMinTime || len(times) >= setupMaxRepeats) {
			return s, times, nil
		}
		if err := teardown(s); err != nil {
			var zero T
			return zero, nil, err
		}
	}
}

// endToEnd sets the gated metrics from a run's set-up times (s), its
// operation latencies (ms), the process CPU time the operations took and
// the peak resident set (MB) of the measured window, and records each
// metric's sample count.
func (o *outcome) endToEnd(setups, latencies []float64, cpu time.Duration, peakRSS float64) {
	o.metrics["setup_s"] = median(setups)
	o.metrics["peak_rss_mb"] = peakRSS
	o.metrics["cpu_ms_per_op"] = ms(cpu) / float64(len(latencies))
	o.metrics["latency_p50_ms"] = median(latencies)
	o.samples = map[string]int{
		"setup_s":        len(setups),
		"cpu_ms_per_op":  len(latencies),
		"latency_p50_ms": len(latencies),
	}
}

// logMetric prints one measurement that is reported but not gated, by
// name with its unit and sample count, on standard error.
func logMetric(e *env, name string, value float64, unit string, samples int) {
	fmt.Fprintf(e.log, "perfbench: %s %.6g %s (%d samples)\n", name, value, unit, samples)
}

// cpuTime is the CPU time, user plus system, the process has used so far.
// Unlike wall time it does not grow while a shared host runs other guests.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentMB reads the process's current resident set (VmRSS).
func residentMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmRSS:" {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rssEvery is how often an rssSampler reads the resident set.
const rssEvery = 10 * time.Millisecond

// rssSampler records the peak resident set over the measured window of a
// run, so neither the set-up before it nor the end-of-run checks after it
// (which replay whole logs) count.
type rssSampler struct {
	stopc chan struct{}
	done  chan struct{}
	once  sync.Once
	peak  float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{}), peak: residentMB()}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
				s.peak = math.Max(s.peak, residentMB())
			}
		}
	}()
	return s
}

// stop ends the window, waits for the sampler to exit and returns the
// window's peak resident set in MB. Later calls return the same peak.
func (s *rssSampler) stop() float64 {
	s.once.Do(func() {
		close(s.stopc)
		<-s.done
		s.peak = math.Max(s.peak, residentMB())
	})
	return s.peak
}

// runtimeProbe reads the runtime/metrics the per-layer "runtime.*" numbers
// come from. start and stop bracket one workload section; a sampler
// goroutine tracks the live-heap peak in between.
type runtimeProbe struct {
	startAllocs, startBytes, startGC, startGCCPU, startCPU float64
	goroutines                                             int

	stopSampler chan struct{}
	samplerDone chan struct{}
	mu          sync.Mutex
	heapPeak    float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// startRuntimeProbe records the baseline. The goroutine count is taken
// first, before the sampler goroutine exists.
func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{
		goroutines:  runtime.NumGoroutine(),
		stopSampler: make(chan struct{}),
		samplerDone: make(chan struct{}),
	}
	v := readRuntime()
	p.startAllocs, p.startBytes, p.startGC, p.startGCCPU, p.startCPU = v[0], v[1], v[2], v[3], v[4]
	p.heapPeak = v[5]
	go func() {
		defer close(p.samplerDone)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stopSampler:
				return
			case <-t.C:
				h := readRuntime()[5]
				p.mu.Lock()
				if h > p.heapPeak {
					p.heapPeak = h
				}
				p.mu.Unlock()
			}
		}
	}()
	return p
}

// stop ends the section. ops is the number of workload operations the
// section completed; teardown must already have run, so goroutines the
// section started and failed to stop show as leaked.
func (p *runtimeProbe) stop(ops int64) map[string]float64 {
	close(p.stopSampler)
	<-p.samplerDone
	v := readRuntime()
	if ops < 1 {
		ops = 1
	}
	gcCPU := v[3] - p.startGCCPU
	cpu := v[4] - p.startCPU
	frac := 0.0
	if cpu > 0 {
		frac = gcCPU / cpu
	}
	// Exiting goroutines need a moment to be reaped after their owners
	// returned; wait briefly before calling any of them leaked.
	leaked := runtime.NumGoroutine() - p.goroutines
	for deadline := time.Now().Add(time.Second); leaked > 0 && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		leaked = runtime.NumGoroutine() - p.goroutines
	}
	if leaked < 0 {
		leaked = 0
	}
	p.mu.Lock()
	peak := p.heapPeak
	p.mu.Unlock()
	return map[string]float64{
		"runtime.allocs_per_op":      (v[0] - p.startAllocs) / float64(ops),
		"runtime.alloc_bytes_per_op": (v[1] - p.startBytes) / float64(ops),
		"runtime.gc_cycles":          v[2] - p.startGC,
		"runtime.gc_cpu_frac":        frac,
		"runtime.heap_peak_mb":       peak / (1 << 20),
		"runtime.goroutines_leaked":  float64(leaked),
	}
}

// obsWindow brackets a section with obs.Default snapshots, so the counters
// and histograms of the process-global registry are read as deltas of this
// section alone.
type obsWindow struct{ before obs.Snapshot }

func openObsWindow() obsWindow { return obsWindow{before: obs.Default().Snapshot()} }

func (w obsWindow) close() obs.Snapshot { return obs.Default().Snapshot().Delta(w.before) }

// tracer is the benchmark's own span recorder: spans wrap the benchmark's
// calls into each layer, never code inside the program. A nil *tracer is
// the untraced mode and records nothing.
type tracer struct {
	mu     sync.Mutex
	next   int64
	spans  []spanRecord
	byName map[string][]time.Duration
	// paused suspends recording, so a stream can alternate traced and
	// untraced stretches of the same work and compare them.
	paused atomic.Bool
}

type spanRecord struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the records kept for the span file; durations of
// every span still feed the per-name summaries.
const maxKeptSpans = 20000

func newTracer() *tracer { return &tracer{byName: map[string][]time.Duration{}} }

type span struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// pause turns recording off (true) or back on (false).
func (t *tracer) pause(p bool) {
	if t != nil {
		t.paused.Store(p)
	}
}

// start opens a span; parent is the ID of the causing span or 0.
func (t *tracer) start(name string, parent int64) span {
	if t == nil || t.paused.Load() {
		return span{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return span{t: t, id: id, parent: parent, name: name, start: time.Now()}
}

func (s span) end() {
	if s.t == nil {
		return
	}
	end := time.Now()
	s.t.mu.Lock()
	s.t.byName[s.name] = append(s.t.byName[s.name], end.Sub(s.start))
	if len(s.t.spans) < maxKeptSpans {
		s.t.spans = append(s.t.spans, spanRecord{
			ID: s.id, Parent: s.parent, Name: s.name,
			Start: s.start.UnixNano(), End: end.UnixNano(),
		})
	}
	s.t.mu.Unlock()
}

// durations returns the recorded durations of every span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.byName[name]...)
}

func (t *tracer) p50us(name string) float64 {
	return quantile(durationsUS(t.durations(name)), 0.5)
}

func (t *tracer) p50ms(name string) float64 {
	return quantile(durationsMS(t.durations(name)), 0.5)
}

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}
