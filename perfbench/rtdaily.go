package main

import (
	"fmt"
	"strings"
	"time"

	"osprey/internal/core"
	"osprey/internal/parallel"
	"osprey/internal/rt"
	"osprey/internal/wastewater"
)

// rt-daily: use case 1. The wastewater R(t) pipeline of Figure 1 runs over
// consecutive days: the feeds advance, four polls fetch and validate them
// on the login tier, new data versions land in the in-process AERO store,
// four Goldstein analyses run on the scheduler-backed batch tier, and the
// TriggerAll ensemble aggregates them.

const (
	rtStartDay     = 70
	rtScenarioDays = 100
	// rtEpisodeCycles is how many fresh cycles one pipeline runs before a
	// new one is built. Each cycle re-estimates the whole visible series,
	// so cost grows with the day; bounding the episode keeps every run's
	// cycles over the same range of days, however fast the program is.
	rtEpisodeCycles = 5
	// rtNodes gives each plant's analysis a batch node of its own.
	rtNodes = 4
	// rtMaxMAE is the per-plant posterior-median error bound the R(t)
	// estimator's own tests use.
	rtMaxMAE = 0.3
)

// rtGoldstein is the reduced-but-real MCMC configuration of the
// repository's figure benchmarks.
func rtGoldstein() rt.GoldsteinOptions {
	return rt.GoldsteinOptions{Iterations: 200, BurnIn: 300, Thin: 2}
}

type rtEpisode struct {
	p      *core.Platform
	wp     *core.WastewaterPipeline
	seed   uint64
	cycles int
}

func openRtEpisode(seed uint64) (*rtEpisode, error) {
	p, err := core.New(core.Config{Identity: "bench", Nodes: rtNodes})
	if err != nil {
		return nil, err
	}
	wp, err := core.NewWastewaterPipeline(p, core.WastewaterConfig{
		ScenarioDays: rtScenarioDays, StartDay: rtStartDay,
		Goldstein: rtGoldstein(), Seed: seed,
	})
	if err != nil {
		p.Shutdown()
		return nil, err
	}
	return &rtEpisode{p: p, wp: wp, seed: seed}, nil
}

func (ep *rtEpisode) close() {
	ep.wp.Close()
	ep.p.Shutdown()
}

// runs reports every plant analysis's run count and the ensemble's.
func (ep *rtEpisode) runs() ([]int, int) {
	var out []int
	for _, name := range ep.wp.PlantNames() {
		_, an, _ := ep.wp.PlantFlow(name)
		out = append(out, an.Runs())
	}
	return out, ep.wp.Aggregate.Runs()
}

// cycle runs one daily cycle: from the advance of the feeds to a fresh
// ensemble. Plants sample every other day, so a cycle can span a day whose
// polls find no change. The first cycle of an episode ingests the backlog
// visible at the start day and needs no advance. poll is the polling step:
// PollAll, or its traced decomposition.
func (ep *rtEpisode) cycle(o *outcome, poll func() error) (time.Duration, error) {
	before, aggBefore := ep.runs()
	start := time.Now()
	for tries := 0; ; tries++ {
		if ep.cycles > 0 || tries > 0 {
			ep.wp.Advance(1)
		}
		if err := poll(); err != nil {
			return 0, err
		}
		if _, agg := ep.runs(); agg > aggBefore || tries >= 3 {
			break
		}
	}
	took := time.Since(start)
	ep.cycles++
	o.attempted++
	after, aggAfter := ep.runs()
	fresh := aggAfter == aggBefore+1
	for i := range after {
		fresh = fresh && after[i] == before[i]+1
	}
	if !fresh {
		o.failed++
		o.problem("rt-daily: cycle %d of seed %d: analyses %v -> %v, ensemble %d -> %d", ep.cycles, ep.seed, before, after, aggBefore, aggAfter)
	}
	return took, nil
}

func (ep *rtEpisode) pollAll() error {
	_, err := ep.wp.PollAll()
	return err
}

// checkAccuracy scores the latest estimates against the scenario's true
// R(t): every plant within rtMaxMAE, the ensemble no worse than the worst
// plant.
func (ep *rtEpisode) checkAccuracy(o *outcome) {
	truth := ep.wp.TruthRt()
	worst := 0.0
	days := 0
	for _, name := range ep.wp.PlantNames() {
		est, err := ep.wp.LatestEstimate(name)
		if err != nil {
			o.problem("rt-daily: estimate %s: %v", name, err)
			return
		}
		days = len(est.Median)
		mae := est.MeanAbsError(truth, 14, days-7)
		if mae > rtMaxMAE {
			o.problem("rt-daily: seed %d plant %s: posterior-median MAE %.3f > %.1f", ep.seed, name, mae, rtMaxMAE)
		}
		if mae > worst {
			worst = mae
		}
	}
	ens, err := ep.wp.LatestEnsemble()
	if err != nil {
		o.problem("rt-daily: ensemble: %v", err)
		return
	}
	if mae := ens.MeanAbsError(truth, 14, days-7); mae > worst {
		o.problem("rt-daily: seed %d: ensemble MAE %.3f worse than the worst plant's %.3f", ep.seed, mae, worst)
	}
}

func measureRtDaily(e *env) (*outcome, error) {
	o := newOutcome()
	var setups, cycles []float64
	var cycleTotal, cpu time.Duration
	rss := startRSSSampler()
	defer rss.stop()
	stopAt := time.Now().Add(e.seconds)
	for k := uint64(0); len(cycles) == 0 || time.Now().Before(stopAt); k++ {
		start := time.Now()
		ep, err := openRtEpisode(e.seed*1000 + k)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		// Every pipeline built runs at least its first cycle, so the
		// accuracy check below always has estimates to score.
		for c := 0; c < rtEpisodeCycles && (c == 0 || time.Now().Before(stopAt)); c++ {
			cpu0 := cpuTime()
			took, err := ep.cycle(o, ep.pollAll)
			cpu += cpuTime() - cpu0
			if err != nil {
				ep.close()
				return nil, err
			}
			cycles = append(cycles, ms(took))
			cycleTotal += took
		}
		ep.checkAccuracy(o)
		ep.close()
	}
	logMetric(e, "rt.cycle_p50_s", median(cycles)/1e3, "s", len(cycles))
	logMetric(e, "rt.cycle_p90_s", quantile(cycles, 0.90)/1e3, "s", len(cycles))
	logMetric(e, "rt.cycles_per_s", float64(len(cycles))/cycleTotal.Seconds(), "1/s", len(cycles))
	o.endToEnd(setups, cycles, cpu, rss.stop())
	return o, nil
}

// layersRtDaily alternates untraced cycles (PollAll) with traced ones that
// time each plant's poll and the wait for the triggered analyses, then
// times the estimator and the ensemble directly on the same windows.
func layersRtDaily(e *env, own bool) (*outcome, error) {
	o := newOutcome()
	var probe *runtimeProbe
	if own {
		probe = startRuntimeProbe()
	}
	win := openObsWindow()
	var plain, traced, direct []float64
	var ensemble float64
	var cycles int64
	stopAt := time.Now().Add(e.seconds)
	for k := 0; k < 2 || time.Now().Before(stopAt); k++ {
		ep, err := openRtEpisode(e.seed*1000 + uint64(k))
		if err != nil {
			return nil, err
		}
		for c := 0; c < rtEpisodeCycles; c++ {
			// The first cycle ingests the backlog and stays untraced and
			// out of the comparison; after it, traced and untraced cycles
			// alternate, starting with the other kind in every other
			// episode so neither kind always gets the later, longer day.
			isTraced := c > 0 && (c+k)%2 == 1
			poll := ep.pollAll
			if isTraced {
				poll = func() error { return ep.tracedPoll(e.tr) }
			}
			took, err := ep.cycle(o, poll)
			if err != nil {
				ep.close()
				return nil, err
			}
			switch {
			case isTraced:
				traced = append(traced, ms(took))
			case c > 0:
				plain = append(plain, ms(took))
			}
		}
		ep.checkAccuracy(o)
		if k == 0 {
			if direct, ensemble, err = ep.directEstimates(); err != nil {
				ep.close()
				return nil, err
			}
		}
		cycles += int64(ep.cycles)
		ep.close()
	}
	d := win.close()
	if own {
		for k, v := range probe.stop(cycles) {
			o.metrics[k] = v
		}
		o.metrics["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	}
	o.metrics["aero.ingest.poll_p50_ms"] = e.tr.p50ms("aero.ingest.poll")
	o.metrics["aero.analysis.wait_p50_ms"] = e.tr.p50ms("aero.analysis.wait")
	o.metrics["rt.goldstein_p50_ms"] = median(direct)
	o.metrics["rt.ensemble_ms"] = ensemble
	o.metrics["sched.job.wait_p50_ms"] = d.Histograms["sched.job.wait_seconds"].P50Seconds * 1e3
	o.metrics["sched.job.run_p50_ms"] = d.Histograms["sched.job.run_seconds"].P50Seconds * 1e3
	o.metrics["aero.flows.triggered"] = float64(d.Counters["aero.flows.triggered"])
	o.metrics["aero.analysis.runs"] = float64(d.Counters["aero.analysis.runs"])
	return o, nil
}

// tracedPoll is PollAll decomposed at its layer boundaries: each plant's
// ingestion poll (fetch, validation transform, store, version) under its
// own span, then the wait for the analyses the new versions triggered.
func (ep *rtEpisode) tracedPoll(tr *tracer) error {
	names := ep.wp.PlantNames()
	root := tr.start("rt.cycle", 0)
	defer root.end()
	errs := make([]error, len(names))
	parallel.For(len(names), func(i int) {
		ing, _, err := ep.wp.PlantFlow(names[i])
		if err != nil {
			errs[i] = err
			return
		}
		sp := tr.start("aero.ingest.poll", root.id)
		_, errs[i] = ing.Poll()
		sp.end()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	sp := tr.start("aero.analysis.wait", root.id)
	ep.p.AERO.WaitIdle()
	sp.end()
	return nil
}

// directEstimates re-runs each plant's estimator, with the pipeline's own
// seed, on the validated series the pipeline last stored, and pools the
// results the way the ensemble flow does.
func (ep *rtEpisode) directEstimates() (goldsteinMS []float64, ensembleMS float64, err error) {
	plants := wastewater.ChicagoPlants()
	var ests []*rt.Estimate
	for i, name := range ep.wp.PlantNames() {
		ing, _, err := ep.wp.PlantFlow(name)
		if err != nil {
			return nil, 0, err
		}
		data, _, err := ep.p.AERO.FetchLatest(ing.OutputUUID, ep.p.Storage)
		if err != nil {
			return nil, 0, err
		}
		obs, err := wastewater.ParseCSV(strings.NewReader(string(data)))
		if err != nil {
			return nil, 0, err
		}
		if len(obs) == 0 {
			return nil, 0, fmt.Errorf("rt-daily: empty series for %s", name)
		}
		opt := rtGoldstein()
		opt.Seed = ep.seed + uint64(1000+i)
		start := time.Now()
		est, err := rt.EstimateGoldstein(obs, plants[i], obs[len(obs)-1].Day+1, opt)
		if err != nil {
			return nil, 0, err
		}
		goldsteinMS = append(goldsteinMS, ms(time.Since(start)))
		ests = append(ests, est)
	}
	start := time.Now()
	if _, err := rt.EnsembleWeighted(ests, nil); err != nil {
		return nil, 0, err
	}
	return goldsteinMS, ms(time.Since(start)), nil
}
