package rt

import (
	"math"
	"testing"

	"osprey/internal/epi"
	"osprey/internal/mcmc"
	"osprey/internal/parallel"
	"osprey/internal/rng"
	"osprey/internal/wastewater"
)

// buildTestModel mirrors EstimateGoldstein's model construction so the
// incremental target can be exercised against the plain posterior.
func buildTestModel(obs []wastewater.Observation, days int) *goldsteinModel {
	m := &goldsteinModel{
		days:     days,
		obs:      obs,
		genPMF:   epi.DiscretizedGamma(5.2, 1.9, 20),
		shedPMF:  wastewater.SheddingKernel(6, 3, 28),
		seedDays: 7,
		rwSigma:  0.18,
	}
	for d := 0; d < days; d += 7 {
		m.knots = append(m.knots, d)
	}
	if last := m.knots[len(m.knots)-1]; last != days-1 {
		m.knots = append(m.knots, days-1)
	}
	return m
}

// TestGoldsteinIncrementalMatchesFull drives a full componentwise chain
// through both the plain posterior and the incremental ComponentTarget and
// requires every retained draw and log density to be bit-identical. This is
// the contract that lets EstimateGoldstein use the incremental path without
// changing any figure.
func TestGoldsteinIncrementalMatchesFull(t *testing.T) {
	days := 70
	s := genSeries(t, days, 11)
	m := buildTestModel(s.Observations, days)

	meanConc := 0.0
	for _, o := range s.Observations {
		meanConc += o.Concentration
	}
	meanConc /= float64(len(s.Observations))

	x0 := make([]float64, m.nParams())
	x0[len(m.knots)] = math.Log(0.5)
	x0[len(m.knots)+1] = math.Log(meanConc)
	scales := make([]float64, m.nParams())
	for i := range m.knots {
		scales[i] = 0.08
	}
	scales[len(m.knots)] = 0.1
	scales[len(m.knots)+1] = 0.15
	mkOpts := func() mcmc.Options {
		return mcmc.Options{
			Iterations: 150, BurnIn: 200, Thin: 2,
			Scales: scales,
			Rand:   rng.New(99).Split("goldstein"),
		}
	}

	scratch := &goldsteinScratch{logR: make([]float64, days), inc: make([]float64, days)}
	full, err := mcmc.RunComponentwise(func(theta []float64) float64 {
		return m.logPosterior(theta, scratch)
	}, x0, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	incr, err := mcmc.RunComponentwiseTarget(newGoldsteinTarget(m), x0, mkOpts())
	if err != nil {
		t.Fatal(err)
	}

	if len(full.Samples) != len(incr.Samples) {
		t.Fatalf("draw counts differ: %d vs %d", len(full.Samples), len(incr.Samples))
	}
	for k := range full.Samples {
		if full.LogDens[k] != incr.LogDens[k] {
			t.Fatalf("draw %d: log density %x (full) vs %x (incremental)", k, full.LogDens[k], incr.LogDens[k])
		}
		for j := range full.Samples[k] {
			if full.Samples[k][j] != incr.Samples[k][j] {
				t.Fatalf("draw %d coord %d: %x (full) vs %x (incremental)", k, j, full.Samples[k][j], incr.Samples[k][j])
			}
		}
	}
	if full.AcceptanceRate != incr.AcceptanceRate {
		t.Fatalf("acceptance rates differ: %v vs %v", full.AcceptanceRate, incr.AcceptanceRate)
	}
}

// TestGoldsteinSerialParallelEquality is the rt leg of the repository-wide
// determinism contract: one worker vs eight must give bit-identical
// estimates.
func TestGoldsteinSerialParallelEquality(t *testing.T) {
	defer parallel.SetWorkers(0)
	days := 70
	s := genSeries(t, days, 12)
	run := func(workers int) *Estimate {
		parallel.SetWorkers(workers)
		est, err := EstimateGoldstein(s.Observations, s.Plant, days, GoldsteinOptions{
			Iterations: 150, BurnIn: 200, Thin: 2, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	a := run(1)
	b := run(8)
	for d := range a.Median {
		if a.Median[d] != b.Median[d] || a.Lower[d] != b.Lower[d] || a.Upper[d] != b.Upper[d] {
			t.Fatalf("day %d: serial and parallel summaries differ", d)
		}
	}
	for k := range a.Draws {
		for d := range a.Draws[k] {
			if a.Draws[k][d] != b.Draws[k][d] {
				t.Fatalf("draw %d day %d: serial and parallel draws differ", k, d)
			}
		}
	}
}

// TestChainsSerialParallelEquality checks the pooled multi-chain estimator
// (the ported fan-out) under both worker counts.
func TestChainsSerialParallelEquality(t *testing.T) {
	defer parallel.SetWorkers(0)
	days := 63
	s := genSeries(t, days, 13)
	opt := GoldsteinOptions{Iterations: 100, BurnIn: 150, Thin: 2, Seed: 21}
	run := func(workers int) *ChainsEstimate {
		parallel.SetWorkers(workers)
		ce, err := EstimateGoldsteinChains(s.Observations, s.Plant, days, opt, 3)
		if err != nil {
			t.Fatal(err)
		}
		return ce
	}
	a := run(1)
	b := run(8)
	for d := range a.Median {
		if a.Median[d] != b.Median[d] || a.RHat[d] != b.RHat[d] {
			t.Fatalf("day %d: serial and parallel pooled estimates differ", d)
		}
	}
	if a.MaxRHat != b.MaxRHat || a.MinESS != b.MinESS {
		t.Fatal("serial and parallel diagnostics differ")
	}
}

var sinkLogDensity float64

// BenchmarkGoldsteinLogDensity times one incremental posterior evaluation
// for each kind of componentwise proposal — a mid-series log-R knot, the
// observation noise sigma, and the seed — from a committed point on a
// 75-day window, the window size of a daily R(t) cycle. It is the
// likelihood rung below BenchmarkFigure2GoldsteinRt.
func BenchmarkGoldsteinLogDensity(b *testing.B) {
	days := 75
	s := wastewater.Generate(wastewater.ChicagoPlants()[0], wastewater.DefaultScenario(days), rng.New(11))
	m := buildTestModel(s.Observations, days)
	nk := len(m.knots)
	x0 := make([]float64, m.nParams())
	x0[nk] = math.Log(0.5)
	x0[nk+1] = math.Log(s.Observations[0].Concentration)
	for _, bc := range []struct {
		name    string
		changed int
	}{{"knot", nk / 2}, {"sigma", nk}, {"seed", nk + 1}} {
		b.Run(bc.name, func(b *testing.B) {
			t := newGoldsteinTarget(m)
			if math.IsInf(t.LogDensityAt(x0, -1), -1) {
				b.Fatal("initial point has zero posterior density")
			}
			t.Commit()
			theta := append([]float64(nil), x0...)
			theta[bc.changed] += 0.01
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkLogDensity = t.LogDensityAt(theta, bc.changed)
			}
		})
	}
}
