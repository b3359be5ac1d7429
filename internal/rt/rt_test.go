package rt

import (
	"math"
	"testing"

	"osprey/internal/rng"
	"osprey/internal/wastewater"
)

// fastOpts keeps test runtimes reasonable while remaining a real MCMC run.
func fastOpts(seed uint64) GoldsteinOptions {
	return GoldsteinOptions{
		Iterations: 400, BurnIn: 600, Thin: 2, Seed: seed,
	}
}

func genSeries(t *testing.T, days int, seed uint64) *wastewater.Series {
	t.Helper()
	sc := wastewater.DefaultScenario(days)
	return wastewater.Generate(wastewater.ChicagoPlants()[0], sc, rng.New(seed))
}

func TestGoldsteinValidation(t *testing.T) {
	s := genSeries(t, 60, 1)
	if _, err := EstimateGoldstein(s.Observations[:2], s.Plant, 60, fastOpts(1)); err == nil {
		t.Fatal("too few observations accepted")
	}
	bad := append([]wastewater.Observation(nil), s.Observations...)
	bad[0].Day = 200
	if _, err := EstimateGoldstein(bad, s.Plant, 60, fastOpts(1)); err == nil {
		t.Fatal("out-of-window observation accepted")
	}
	bad2 := append([]wastewater.Observation(nil), s.Observations...)
	bad2[0].Concentration = -1
	if _, err := EstimateGoldstein(bad2, s.Plant, 60, fastOpts(1)); err == nil {
		t.Fatal("negative concentration accepted")
	}
	if _, err := EstimateGoldstein(s.Observations, s.Plant, 5, fastOpts(1)); err == nil {
		t.Fatal("window shorter than knot spacing accepted")
	}
}

func TestGoldsteinRecoversTrend(t *testing.T) {
	days := 100
	s := genSeries(t, days, 2)
	est, err := EstimateGoldstein(s.Observations, s.Plant, days, fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	// Shape check: truth starts ~1.4 and dips below 1; the posterior
	// median should start clearly above its mid-series minimum.
	early := est.Median[10]
	mid := est.Median[days/2]
	if early <= mid {
		t.Fatalf("declining R(t) not recovered: early %v vs mid %v", early, mid)
	}
	if mid > 1.15 {
		t.Fatalf("mid-series R estimate %v should be near or below 1", mid)
	}
	// Bands must be ordered and positive.
	for d := 0; d < days; d++ {
		if !(est.Lower[d] <= est.Median[d] && est.Median[d] <= est.Upper[d]) {
			t.Fatalf("band ordering violated at day %d", d)
		}
		if est.Lower[d] <= 0 {
			t.Fatalf("nonpositive R lower bound at day %d", d)
		}
	}
}

func TestGoldsteinCoverage(t *testing.T) {
	days := 100
	s := genSeries(t, days, 3)
	est, err := EstimateGoldstein(s.Observations, s.Plant, days, fastOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	// Skip the seeded ramp-up week; expect decent coverage of the truth.
	cov := est.Coverage(s.TrueRt, 14, days-7)
	if cov < 0.6 {
		t.Fatalf("95%% band covers truth only %.0f%% of days", cov*100)
	}
	mae := est.MeanAbsError(s.TrueRt, 14, days-7)
	if mae > 0.3 {
		t.Fatalf("posterior median MAE %v too large", mae)
	}
}

func TestGoldsteinDeterministicGivenSeed(t *testing.T) {
	days := 70
	s := genSeries(t, days, 4)
	a, err := EstimateGoldstein(s.Observations, s.Plant, days, fastOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateGoldstein(s.Observations, s.Plant, days, fastOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	for d := range a.Median {
		if a.Median[d] != b.Median[d] {
			t.Fatal("same-seed estimates differ")
		}
	}
}

func TestGoldsteinScaleInvariance(t *testing.T) {
	// Multiplying all concentrations by a constant must not change R(t):
	// the seed parameter absorbs the scale.
	days := 80
	s := genSeries(t, days, 5)
	scaled := make([]wastewater.Observation, len(s.Observations))
	for i, o := range s.Observations {
		scaled[i] = wastewater.Observation{Day: o.Day, Concentration: o.Concentration * 1000}
	}
	a, err := EstimateGoldstein(s.Observations, s.Plant, days, fastOpts(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateGoldstein(scaled, s.Plant, days, fastOpts(9))
	if err != nil {
		t.Fatal(err)
	}
	for d := 10; d < days-7; d += 10 {
		if math.Abs(a.Median[d]-b.Median[d]) > 0.15 {
			t.Fatalf("scale changed R estimate at day %d: %v vs %v", d, a.Median[d], b.Median[d])
		}
	}
}

func makeEstimates(t *testing.T, days int) ([]*Estimate, *wastewater.Series) {
	t.Helper()
	sc := wastewater.DefaultScenario(days)
	plants := wastewater.ChicagoPlants()
	root := rng.New(77)
	var ests []*Estimate
	var first *wastewater.Series
	for i, p := range plants {
		s := wastewater.Generate(p, sc, root.Split(p.Name))
		if i == 0 {
			first = s
		}
		est, err := EstimateGoldstein(s.Observations, p, days, fastOpts(uint64(10+i)))
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, est)
	}
	return ests, first
}

func TestFigure2EnsembleCoverage(t *testing.T) {
	days := 90
	ests, s := makeEstimates(t, days)
	ens, err := EnsembleWeighted(ests, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cov := ens.Coverage(s.TrueRt, 14, days-7); cov < 0.6 {
		t.Fatalf("ensemble coverage %.0f%% too low", cov*100)
	}
	// The ensemble error should not exceed the worst single plant's, and
	// typically beats the mean plant error (signal-to-noise pooling).
	worst := 0.0
	sum := 0.0
	for _, e := range ests {
		mae := e.MeanAbsError(s.TrueRt, 14, days-7)
		sum += mae
		if mae > worst {
			worst = mae
		}
	}
	ensMAE := ens.MeanAbsError(s.TrueRt, 14, days-7)
	if ensMAE > worst {
		t.Fatalf("ensemble MAE %v worse than worst plant %v", ensMAE, worst)
	}
	t.Logf("ensemble MAE %.3f vs mean plant MAE %.3f", ensMAE, sum/4)
}

func TestEnsembleWeightsNormalized(t *testing.T) {
	ests, _ := makeEstimates(t, 70)
	ens, err := EnsembleWeighted(ests, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, w := range ens.Weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", sum)
	}
	// O'Brien (largest population) should carry the largest weight.
	if ens.Weights[0] <= ens.Weights[1] {
		t.Fatal("population weighting not applied")
	}
}

func TestEnsembleValidation(t *testing.T) {
	if _, err := EnsembleWeighted(nil, nil); err == nil {
		t.Fatal("empty ensemble accepted")
	}
	ests, _ := makeEstimates(t, 70)
	if _, err := EnsembleWeighted(ests, []float64{1}); err == nil {
		t.Fatal("short weights accepted")
	}
	if _, err := EnsembleWeighted(ests, []float64{-1, 1, 1, 1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := EnsembleWeighted(ests, []float64{0, 0, 0, 0}); err == nil {
		t.Fatal("zero weights accepted")
	}
}

func TestEnsembleBandOrdering(t *testing.T) {
	ests, _ := makeEstimates(t, 70)
	ens, err := EnsembleWeighted(ests, nil)
	if err != nil {
		t.Fatal(err)
	}
	for d := range ens.Days {
		if !(ens.Lower[d] <= ens.Median[d] && ens.Median[d] <= ens.Upper[d]) {
			t.Fatalf("ensemble band ordering violated at day %d", d)
		}
	}
	if bw := ens.BandWidth(14, 60); bw <= 0 || math.IsNaN(bw) {
		t.Fatalf("bad ensemble band width %v", bw)
	}
}

// truncated returns e cut to its first days days, as an estimate over that
// shorter window would index them.
func truncated(e *Estimate, days int) *Estimate {
	c := *e
	c.Days = e.Days[:days]
	c.Median, c.Lower, c.Upper = e.Median[:days], e.Lower[:days], e.Upper[:days]
	c.Draws = make([][]float64, len(e.Draws))
	for k, row := range e.Draws {
		c.Draws[k] = row[:days]
	}
	return &c
}

// TestEnsembleMixedWindows: plants sample on different days, so their
// windows can end on different days (71/71/69/71 in the daily pipeline).
// The ensemble covers the shortest window, and every day it covers is
// bit-identical to the ensemble of equal windows.
func TestEnsembleMixedWindows(t *testing.T) {
	ests, _ := makeEstimates(t, 70)
	full, err := EnsembleWeighted(ests, nil)
	if err != nil {
		t.Fatal(err)
	}
	mixed := append([]*Estimate(nil), ests...)
	mixed[2] = truncated(ests[2], 68)
	ens, err := EnsembleWeighted(mixed, nil)
	if err != nil {
		t.Fatalf("mixed windows rejected: %v", err)
	}
	if len(ens.Days) != 68 || len(ens.Median) != 68 || len(ens.Lower) != 68 || len(ens.Upper) != 68 {
		t.Fatalf("ensemble covers %d days, want the shortest window's 68", len(ens.Days))
	}
	for d := range ens.Days {
		if ens.Days[d] != full.Days[d] ||
			math.Float64bits(ens.Median[d]) != math.Float64bits(full.Median[d]) ||
			math.Float64bits(ens.Lower[d]) != math.Float64bits(full.Lower[d]) ||
			math.Float64bits(ens.Upper[d]) != math.Float64bits(full.Upper[d]) {
			t.Fatalf("day %d differs from the equal-window ensemble", d)
		}
	}
	for i := range ens.Weights {
		if ens.Weights[i] != full.Weights[i] {
			t.Fatalf("weight %d changed: %v vs %v", i, ens.Weights[i], full.Weights[i])
		}
	}
}
