package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/emews"
)

func TestPlanDigestIsAFunctionOfTheSeed(t *testing.T) {
	for name, digest := range map[string]func(uint64, int) string{
		"task": taskPlanDigest,
		"meta": metaPlanDigest,
	} {
		a, b := digest(7, 2000), digest(7, 2000)
		if a != b {
			t.Errorf("%s plan: same seed gave digests %s and %s", name, a, b)
		}
		if c := digest(8, 2000); c == a {
			t.Errorf("%s plan: seeds 7 and 8 gave the same digest %s", name, a)
		}
	}
}

func TestTaskPlanStaysInRange(t *testing.T) {
	p := newTaskPlan(3)
	for i := 0; i < 1000; i++ {
		batch := p.next()
		if len(batch) < 1 || len(batch) > maxBatch {
			t.Fatalf("batch of %d tasks", len(batch))
		}
		for _, s := range batch {
			if len(s) < minPayload || len(s) > maxPayload {
				t.Fatalf("payload of %d bytes", len(s))
			}
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesAndUnitsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEndMetrics...), perLayerMetrics...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
		if !metricUnit.MatchString(m.Unit) {
			t.Errorf("metric %s unit %q", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the program has %d", names, len(workloads))
	}
	compare := func(kind string, listed []metricSpec, file []metricSpec) {
		if len(listed) != len(file) {
			t.Errorf("%s: program emits %d metrics, BENCHMARK.json lists %d", kind, len(listed), len(file))
		}
		for _, m := range file {
			got, ok := findMetric(listed, m.Name)
			if !ok {
				t.Errorf("%s: BENCHMARK.json metric %s is never emitted", kind, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: metric %s unit %s in the program, %s in BENCHMARK.json", kind, m.Name, got.Unit, m.Unit)
			}
		}
		for _, m := range listed {
			if _, ok := findMetric(file, m.Name); !ok {
				t.Errorf("%s: metric %s is emitted but not listed in BENCHMARK.json", kind, m.Name)
			}
		}
	}
	var e2e, layers []metricSpec
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit})
	}
	compare("end_to_end", endToEndMetrics, e2e)
	compare("per_layer", perLayerMetrics, layers)
}

// TestRunEmitsExactlyTheEndToEndMetrics runs one short workload through
// the command's entry point and checks the printed result line.
func TestRunEmitsExactlyTheEndToEndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "meta-stream", "--seed", "5", "--seconds", "1", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("result %+v", res)
	}
	if len(res.Metrics) != len(endToEndMetrics) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(endToEndMetrics))
	}
	for _, m := range endToEndMetrics {
		v, ok := res.Metrics[m.Name]
		if !ok || v.Unit != m.Unit || v.Value <= 0 {
			t.Errorf("metric %s printed as %+v", m.Name, v)
		}
	}
}

// TestComposedStudyReproducesRunGSA checks the traced decomposition of a
// study against core.RunGSA at a reduced size: same seed, bit-identical
// final indices.
func TestComposedStudyReproducesRunGSA(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two studies")
	}
	cfg := gsaConfig(11)
	cfg.Replicates = 3
	cfg.Music.Budget = 30
	p, err := openGSAPlatform()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.RunGSA(p, cfg, true)
	p.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	p, err = openGSAPlatform()
	if err != nil {
		t.Fatal(err)
	}
	comp, err := composeGSA(p, cfg, newTracer())
	p.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := indicesDigest(ref.FinalIndices), indicesDigest(comp.indices); a != b {
		t.Fatalf("RunGSA digest %s, composition digest %s", a, b)
	}
	again, err := func() (*core.GSAResult, error) {
		p, err := openGSAPlatform()
		if err != nil {
			return nil, err
		}
		defer p.Shutdown()
		return core.RunGSA(p, cfg, true)
	}()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := indicesDigest(ref.FinalIndices), indicesDigest(again.FinalIndices); a != b {
		t.Fatalf("two RunGSA runs of one seed: digests %s and %s", a, b)
	}
}

// TestStreamTasksIsExactlyOnce drives the closed loop against an
// in-process database with spans on, and runs the stream's own checks.
func TestStreamTasksIsExactlyOnce(t *testing.T) {
	db := emews.NewDB()
	defer db.Close()
	tr := newTracer()
	run := streamTasks(newTaskPlan(3), dbConn{db}, dbConn{db}, time.Now().Add(time.Minute), 3000, tr)
	o := newOutcome()
	run.check(o, "db")
	checkLedger(o, "db", db.Stats(), emews.Stats{}, run)
	checkStored(o, "db", db)
	if len(o.problems) > 0 {
		t.Fatal(o.problems)
	}
	if run.completed != 3000 || o.attempted != 3000 || o.failed != 0 {
		t.Fatalf("completed %d, attempted %d, failed %d", run.completed, o.attempted, o.failed)
	}
	if n := len(tr.durations("emews.client.submit_batch")); n == 0 {
		t.Error("no submit spans recorded")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
