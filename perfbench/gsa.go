package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"osprey/internal/core"
	"osprey/internal/design"
	"osprey/internal/emews"
	"osprey/internal/gp"
	"osprey/internal/linalg"
	"osprey/internal/metarvm"
	"osprey/internal/music"
	"osprey/internal/rng"
	"osprey/internal/sobolidx"
)

// gsa-study: use case 2. core.RunGSA drives 10 MUSIC replicates (the
// paper's count) interleaved over one EMEWS worker pool that evaluates
// MetaRVM. At this budget the MUSIC driver, not the pool, is the
// bottleneck, so the GP, linear algebra, MUSIC and Sobol layers do most of
// the work.

const (
	gsaReplicates = 10
	gsaBudget     = 120
	// gsaWorkers is the pool size: one scheduler node with one worker per
	// core of the 2-vCPU reference host.
	gsaNodes   = 1
	gsaWorkers = 2
	gsaType    = "metarvm"
	// gsaDominant is the Table 1 parameter every study must find most
	// influential (largest replicate-mean first-order index): the
	// transmission rate for susceptibles.
	gsaDominant = "ts"
)

func gsaConfig(seed uint64) core.GSAConfig {
	return core.GSAConfig{
		Replicates: gsaReplicates,
		Music: music.Options{
			InitialDesign: 20, Budget: gsaBudget, CandidatePool: 80,
			RefitEvery: 10, IndexSamples: 256,
			GP: gp.Options{MaxIter: 60, Restarts: 0},
		},
		Nodes: gsaNodes, WorkersPerNode: gsaWorkers,
		Seed: seed,
	}
}

// openGSAPlatform builds the deployment a study runs on and starts (then
// stops) a probe pool on it, so set-up time covers the pool start.
func openGSAPlatform() (*core.Platform, error) {
	p, err := core.New(core.Config{Identity: "bench", Nodes: gsaNodes})
	if err != nil {
		return nil, err
	}
	pool, err := emews.StartScheduledPool(p.Cluster, gsaNodes, gsaWorkers, p.TaskDB, "probe",
		func(context.Context, string) (string, error) { return "", nil }, 0)
	if err != nil {
		p.Shutdown()
		return nil, err
	}
	pool.Stop()
	return p, nil
}

// indicesDigest hashes the exact bits of every replicate's final indices.
func indicesDigest(idx [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, row := range idx {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		h.Write([]byte{'|'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// dominant returns the parameter with the largest replicate-mean
// first-order index.
func dominant(idx [][]float64) string {
	names := metarvm.GSAParameterSpace().Names()
	mean := make([]float64, len(names))
	for _, row := range idx {
		for j, v := range row {
			mean[j] += v / float64(len(idx))
		}
	}
	best := 0
	for j := range mean {
		if mean[j] > mean[best] {
			best = j
		}
	}
	return names[best]
}

// checkStudy verifies one study's output.
func checkStudy(o *outcome, seed uint64, res *core.GSAResult) {
	o.attempted += int64(gsaReplicates * gsaBudget)
	if res.Evaluations != gsaReplicates*gsaBudget {
		o.failed += int64(gsaReplicates*gsaBudget - res.Evaluations)
		o.problem("gsa-study: seed %d ran %d evaluations, want %d", seed, res.Evaluations, gsaReplicates*gsaBudget)
	}
	if len(res.FinalIndices) != gsaReplicates {
		o.problem("gsa-study: seed %d returned %d replicates", seed, len(res.FinalIndices))
		return
	}
	for r, row := range res.FinalIndices {
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				o.problem("gsa-study: seed %d replicate %d has a non-finite index", seed, r)
				return
			}
		}
	}
	if d := dominant(res.FinalIndices); d != gsaDominant {
		o.problem("gsa-study: seed %d: dominant parameter %s, want %s", seed, d, gsaDominant)
	}
}

func measureGSA(e *env) (*outcome, error) {
	o := newOutcome()
	p, setups, err := repeatSetup(setupRepeats, openGSAPlatform,
		func(p *core.Platform) error { p.Shutdown(); return nil })
	if err != nil {
		return nil, err
	}
	var studies []float64
	var total, cpu time.Duration
	evals := 0
	rss := startRSSSampler()
	defer rss.stop()
	stopAt := time.Now().Add(e.seconds)
	for k := uint64(0); len(studies) == 0 || time.Now().Before(stopAt); k++ {
		if k > 0 {
			if p, err = openGSAPlatform(); err != nil {
				return nil, err
			}
		}
		seed := e.seed*1000 + k
		cpu0 := cpuTime()
		res, err := core.RunGSA(p, gsaConfig(seed), true)
		cpu += cpuTime() - cpu0
		p.Shutdown()
		if err != nil {
			return nil, err
		}
		checkStudy(o, seed, res)
		fmt.Fprintf(e.log, "perfbench: gsa-study seed %d: %d evaluations in %v, indices digest %s\n",
			seed, res.Evaluations, res.Elapsed.Round(time.Millisecond), indicesDigest(res.FinalIndices))
		studies = append(studies, ms(res.Elapsed))
		total += res.Elapsed
		evals += res.Evaluations
	}
	logMetric(e, "gsa.study_s", median(studies)/1e3, "s", len(studies))
	logMetric(e, "gsa.evaluations_per_s", float64(evals)/total.Seconds(), "1/s", evals)
	o.endToEnd(setups, studies, cpu, rss.stop())
	return o, nil
}

// layersGSA runs one study through core.RunGSA, untraced, then the same
// study again through the public calls RunGSA composes, with a span
// around each. The composition must reproduce RunGSA's indices bit for
// bit. The numerical kernels are then timed directly at the final design
// size.
func layersGSA(e *env, own bool) (*outcome, error) {
	o := newOutcome()
	seed := e.seed * 1000
	var probe *runtimeProbe
	if own {
		probe = startRuntimeProbe()
	}
	p, err := openGSAPlatform()
	if err != nil {
		return nil, err
	}
	win := openObsWindow()
	ref, err := core.RunGSA(p, gsaConfig(seed), true)
	d := win.close()
	p.Shutdown()
	if err != nil {
		return nil, err
	}
	if own {
		for k, v := range probe.stop(int64(ref.Evaluations)) {
			o.metrics[k] = v
		}
	}
	checkStudy(o, seed, ref)

	p, err = openGSAPlatform()
	if err != nil {
		return nil, err
	}
	comp, err := composeGSA(p, gsaConfig(seed), e.tr)
	p.Shutdown()
	if err != nil {
		return nil, err
	}
	if indicesDigest(comp.indices) != indicesDigest(ref.FinalIndices) {
		o.problem("gsa-study: traced composition indices %s differ from RunGSA's %s",
			indicesDigest(comp.indices), indicesDigest(ref.FinalIndices))
	}
	if own {
		o.metrics["trace.overhead_pct"] = 100 * (comp.elapsed.Seconds()/ref.Elapsed.Seconds() - 1)
	}

	o.metrics["music.next_point_p50_ms"] = e.tr.p50ms("music.next_point")
	o.metrics["music.observe_p50_ms"] = e.tr.p50ms("music.observe")
	o.metrics["metarvm.eval_p50_ms"] = e.tr.p50ms("metarvm.eval")
	o.metrics["emews.pool.util_pct"] = ref.Pool.UtilizationPct
	o.metrics["parallel.for.inline_ratio"] = ratio(float64(d.Counters["parallel.for.inline"]), float64(d.Counters["parallel.for.calls"]))
	o.metrics["parallel.for.imbalance_p50_us"] = d.Histograms["parallel.for.imbalance"].P50Seconds * 1e6
	o.metrics["linalg.chol.jitter_retries"] = float64(d.Counters["linalg.chol.jitter_retries"])
	cfg := gsaConfig(seed)
	for k, v := range timeKernels(comp.x0, comp.y0, comp.final, cfg.Music.IndexSamples, cfg.Music.GP) {
		o.metrics[k] = v
	}
	return o, nil
}

// gsaTask is the task payload the composition submits, as RunGSA does.
type gsaTask struct {
	X    []float64 `json:"x"`
	Seed uint64    `json:"seed"`
}

type gsaResult struct {
	Y float64 `json:"y"`
}

type composition struct {
	indices [][]float64
	elapsed time.Duration
	// x0, y0 are replicate 0's final design in unit coordinates and its
	// responses: the inputs of the direct kernel timings.
	x0 [][]float64
	y0 []float64
	// final is replicate 0's surrogate after its last observation.
	final gp.Surrogate
}

type compInstance struct {
	alg     *music.Algorithm
	seed    uint64
	pending []*emews.Future
	points  [][]float64
	x       [][]float64
	y       []float64
}

// composeGSA is RunGSA's interleaved study written against the public
// calls it composes. Instance and model seeds are derived exactly as
// RunGSA derives them.
func composeGSA(p *core.Platform, cfg core.GSAConfig, tr *tracer) (*composition, error) {
	space := metarvm.GSAParameterSpace()
	cfg.Music.Space = space
	handler := func(_ context.Context, payload string) (string, error) {
		var t gsaTask
		if err := json.Unmarshal([]byte(payload), &t); err != nil {
			return "", err
		}
		sp := tr.start("metarvm.eval", 0)
		y, err := metarvm.EvaluateGSA(t.X, t.Seed)
		sp.end()
		if err != nil {
			return "", err
		}
		out, err := json.Marshal(gsaResult{Y: y})
		return string(out), err
	}
	pool, err := emews.StartScheduledPool(p.Cluster, cfg.Nodes, cfg.WorkersPerNode, p.TaskDB, gsaType, handler, 0)
	if err != nil {
		return nil, err
	}
	defer pool.Stop()

	root := rng.New(cfg.Seed)
	insts := make([]*compInstance, cfg.Replicates)
	for i := range insts {
		opts := cfg.Music
		opts.Seed = cfg.Seed + uint64(i)*7919
		alg, err := music.New(opts)
		if err != nil {
			return nil, err
		}
		insts[i] = &compInstance{alg: alg, seed: root.Split(fmt.Sprintf("replicate/%d", i)).Uint64()%100000 + 1}
	}
	submit := func(inst *compInstance, pts [][]float64) error {
		for _, pt := range pts {
			payload, err := json.Marshal(gsaTask{X: pt, Seed: inst.seed})
			if err != nil {
				return err
			}
			sp := tr.start("emews.db.submit", 0)
			f, err := p.TaskDB.Submit(gsaType, 0, string(payload))
			sp.end()
			if err != nil {
				return err
			}
			inst.pending = append(inst.pending, f)
			inst.points = append(inst.points, pt)
		}
		return nil
	}

	start := time.Now()
	for _, inst := range insts {
		pts, err := inst.alg.InitialDesign()
		if err != nil {
			return nil, err
		}
		if err := submit(inst, pts); err != nil {
			return nil, err
		}
	}
	for {
		allDone, progressed := true, false
		for _, inst := range insts {
			if inst.alg.Done() && len(inst.pending) == 0 {
				continue
			}
			allDone = false
			ready, err := harvestInstance(inst, space, tr)
			if err != nil {
				return nil, err
			}
			if !ready {
				continue
			}
			progressed = true
			if inst.alg.Done() {
				continue
			}
			sp := tr.start("music.next_point", 0)
			pt, err := inst.alg.NextPoint()
			sp.end()
			if err != nil {
				return nil, err
			}
			if err := submit(inst, [][]float64{pt}); err != nil {
				return nil, err
			}
		}
		if allDone {
			break
		}
		if !progressed {
			time.Sleep(200 * time.Microsecond)
		}
	}
	comp := &composition{elapsed: time.Since(start), x0: insts[0].x, y0: insts[0].y, final: insts[0].alg.Surrogate()}
	for _, inst := range insts {
		idx, err := inst.alg.Indices()
		if err != nil {
			return nil, err
		}
		comp.indices = append(comp.indices, idx)
	}
	return comp, nil
}

// harvestInstance observes an instance's batch once every future in it
// has resolved: RunGSA's cooperative check.
func harvestInstance(inst *compInstance, space *design.Space, tr *tracer) (bool, error) {
	if len(inst.pending) == 0 {
		return true, nil
	}
	for _, f := range inst.pending {
		if _, _, finished := f.TryResult(); !finished {
			return false, nil
		}
	}
	vals := make([]float64, len(inst.pending))
	for i, f := range inst.pending {
		s, err := f.Result(context.Background())
		if err != nil {
			return false, err
		}
		var r gsaResult
		if err := json.Unmarshal([]byte(s), &r); err != nil {
			return false, err
		}
		vals[i] = r.Y
	}
	sp := tr.start("music.observe", 0)
	err := inst.alg.Observe(inst.points, vals)
	sp.end()
	if err != nil {
		return false, err
	}
	for i, pt := range inst.points {
		inst.x = append(inst.x, space.Unscale(pt))
		inst.y = append(inst.y, vals[i])
	}
	inst.pending, inst.points = nil, nil
	return true, nil
}

// kernelRepeats is how many times each directly timed kernel runs; the
// median is reported.
const kernelRepeats = 5

// timeKernels times the surrogate's numerical kernels directly on a final
// design: a GP fit, a Cholesky factorization of a kernel matrix of the
// same size, batched prediction over fresh candidates, and the Sobol index
// estimate a MUSIC snapshot makes, from a cold mean cache.
func timeKernels(x [][]float64, y []float64, final gp.Surrogate, indexSamples int, opts gp.Options) map[string]float64 {
	out := map[string]float64{}
	var fits, chols, indices []float64
	for i := 0; i < kernelRepeats; i++ {
		start := time.Now()
		dg, err := sobolidx.NewDesign(len(x[0]), indexSamples, nil)
		if err != nil {
			break
		}
		vals := make([]float64, len(dg.Points()))
		gp.NewMeanCache(dg.Points()).Means(final, vals)
		dg.Estimate(vals, true)
		indices = append(indices, ms(time.Since(start)))
	}
	out["music.indices_ms"] = median(indices)
	var model *gp.GP
	for i := 0; i < kernelRepeats; i++ {
		start := time.Now()
		g, err := gp.Fit(x, y, opts)
		fits = append(fits, ms(time.Since(start)))
		if err == nil {
			model = g
		}
	}
	n := len(x)
	k := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d2 := 0.0
			for c := range x[i] {
				diff := x[i][c] - x[j][c]
				d2 += diff * diff
			}
			v := math.Exp(-d2 / (2 * 0.3 * 0.3))
			if i == j {
				v += 1e-6
			}
			k.Set(i, j, v)
		}
	}
	for i := 0; i < kernelRepeats; i++ {
		start := time.Now()
		_, _ = linalg.NewCholesky(k)
		chols = append(chols, ms(time.Since(start)))
	}
	out["gp.fit_ms"] = median(fits)
	out["linalg.cholesky_ms"] = median(chols)
	if model != nil {
		cand := design.LatinHypercube(rng.New(7).Split("candidates"), 1024, len(x[0]))
		var per []float64
		for i := 0; i < kernelRepeats; i++ {
			start := time.Now()
			model.PredictBatch(cand)
			per = append(per, us(time.Since(start))/float64(len(cand)))
		}
		out["gp.predict_batch_us_per_point"] = median(per)
	}
	return out
}
