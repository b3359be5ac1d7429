package core

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"osprey/internal/rng"
	"osprey/internal/rt"
	"osprey/internal/wastewater"
)

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameEstimate(a, b *rt.Estimate) bool {
	if a.Plant != b.Plant || len(a.Days) != len(b.Days) || len(a.Draws) != len(b.Draws) ||
		math.Float64bits(a.AcceptanceRate) != math.Float64bits(b.AcceptanceRate) ||
		math.Float64bits(a.MinESS) != math.Float64bits(b.MinESS) ||
		!sameBits(a.Median, b.Median) || !sameBits(a.Lower, b.Lower) || !sameBits(a.Upper, b.Upper) {
		return false
	}
	for d := range a.Days {
		if a.Days[d] != b.Days[d] {
			return false
		}
	}
	for k := range a.Draws {
		if !sameBits(a.Draws[k], b.Draws[k]) {
			return false
		}
	}
	return true
}

// TestPipelineProductsMatchDirect: the estimate each plant's flow stores
// decodes to exactly what EstimateGoldstein returns when run directly on the
// series the ingestion flow stored, with the flow's seed, and the stored
// ensemble is exactly EnsembleWeighted over those direct estimates.
func TestPipelineProductsMatchDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	p := newPlatform(t)
	cfg := WastewaterConfig{
		ScenarioDays: 100,
		StartDay:     70,
		Goldstein:    rt.GoldsteinOptions{Iterations: 120, BurnIn: 180, Thin: 2},
		Seed:         7,
	}
	wp, err := NewWastewaterPipeline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer wp.Close()
	if _, err := wp.PollAll(); err != nil {
		t.Fatal(err)
	}
	wp.Advance(2)
	if _, err := wp.PollAll(); err != nil {
		t.Fatal(err)
	}

	var direct []*rt.Estimate
	for i, plant := range wastewater.ChicagoPlants() {
		ing, _, err := wp.PlantFlow(plant.Name)
		if err != nil {
			t.Fatal(err)
		}
		data, _, err := p.AERO.FetchLatest(ing.OutputUUID, p.Storage)
		if err != nil {
			t.Fatal(err)
		}
		obs, err := wastewater.ParseCSV(strings.NewReader(string(data)))
		if err != nil {
			t.Fatal(err)
		}
		opt := cfg.Goldstein
		opt.Seed = cfg.Seed + uint64(1000+i)
		want, err := rt.EstimateGoldstein(obs, plant, obs[len(obs)-1].Day+1, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wp.LatestEstimate(plant.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !sameEstimate(got, want) {
			t.Fatalf("%s: stored estimate differs from the direct EstimateGoldstein run", plant.Name)
		}
		direct = append(direct, want)
	}

	want, err := rt.EnsembleWeighted(direct, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wp.LatestEnsemble()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Days) != len(want.Days) || !sameBits(got.Median, want.Median) || !sameBits(got.Lower, want.Lower) ||
		!sameBits(got.Upper, want.Upper) || !sameBits(got.Weights, want.Weights) {
		t.Fatal("stored ensemble differs from EnsembleWeighted over the direct estimates")
	}
}

// TestPipelineEnsembleMixedWindows is a regression test: with this seed the
// plants' last samples fall on different days after the first poll, so
// their estimate windows differ. The aggregate must still run cleanly and
// cover the shortest window, rather than fail with an analysis error and
// leave no ensemble.
func TestPipelineEnsembleMixedWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	p := newPlatform(t)
	wp, err := NewWastewaterPipeline(p, WastewaterConfig{
		ScenarioDays: 100,
		StartDay:     70,
		Goldstein:    rt.GoldsteinOptions{Iterations: 60, BurnIn: 60, Thin: 1},
		Seed:         2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wp.Close()
	if _, err := wp.PollAll(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range p.AERO.Events() {
		if ev.Kind == "analysis.error" {
			t.Fatalf("analysis error on flow %s: %s", ev.Flow, ev.Detail)
		}
	}
	shortest, longest := math.MaxInt, 0
	for _, name := range wp.PlantNames() {
		est, err := wp.LatestEstimate(name)
		if err != nil {
			t.Fatal(err)
		}
		shortest, longest = min(shortest, len(est.Days)), max(longest, len(est.Days))
	}
	if shortest == longest {
		t.Fatalf("all windows cover %d days; the seed no longer exercises mixed windows", shortest)
	}
	ens, err := wp.LatestEnsemble()
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.Days) != shortest || len(ens.Median) != shortest {
		t.Fatalf("ensemble covers %d days, want the shortest window's %d", len(ens.Days), shortest)
	}
}

// testEstimate is a synthetic estimate shaped like one daily cycle's: 200
// draws over a 75-day window.
func testEstimate() *rt.Estimate {
	r := rng.New(5)
	days, draws := 75, 200
	est := &rt.Estimate{
		Plant:          wastewater.ChicagoPlants()[1],
		Days:           make([]int, days),
		Median:         make([]float64, days),
		Lower:          make([]float64, days),
		Upper:          make([]float64, days),
		Draws:          make([][]float64, draws),
		AcceptanceRate: 0.31,
		MinESS:         42.5,
	}
	for d := range est.Days {
		est.Days[d] = d
		est.Lower[d], est.Median[d], est.Upper[d] = 0.8, 1+r.Normal()/10, 1.2
	}
	for k := range est.Draws {
		est.Draws[k] = make([]float64, days)
		for d := range est.Draws[k] {
			est.Draws[k][d] = math.Exp(r.Normal() / 5)
		}
	}
	est.Draws[3][4] = math.Copysign(0, -1) // sign of zero survives
	est.Draws[5][6] = math.SmallestNonzeroFloat64
	return est
}

func TestEstimateProductRoundTrip(t *testing.T) {
	est := testEstimate()
	data, err := encodeEstimate(est)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeEstimate(data)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEstimate(got, est) {
		t.Fatal("round trip changed the estimate")
	}
	none := *est
	none.Draws = nil
	data, err = encodeEstimate(&none)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeEstimate(data); err != nil || len(got.Draws) != 0 || !sameBits(got.Median, est.Median) {
		t.Fatalf("estimate without draws: %v", err)
	}
}

// TestEstimateProductRejectsMalformed: every truncation of a product, and
// every product whose packed draws do not fill exactly the declared rows,
// decodes to an error, never a panic.
func TestEstimateProductRejectsMalformed(t *testing.T) {
	est := testEstimate()
	est.Draws = est.Draws[:3]
	data, err := encodeEstimate(est)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := decodeEstimate(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
		}
	}
	if _, err := decodeEstimate(append(append([]byte(nil), data...), 0, 0, 0, 0, 0, 0, 0, 0)); err == nil {
		t.Fatal("trailing draw bytes accepted")
	}
	bad := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(bad, math.MaxUint32)
	if _, err := decodeEstimate(bad); err == nil {
		t.Fatal("header length beyond the input accepted")
	}
	hlen := binary.LittleEndian.Uint32(data)
	header := string(data[4 : 4+hlen])
	for _, c := range []struct{ from, to string }{
		{`"draws":3`, `"draws":4`},                   // more rows than packed
		{`"draws":3`, `"draws":2`},                   // fewer rows than packed
		{`"draws":3`, `"draws":-1`},                  // negative count
		{`"draws":3`, `"draws":4611686018427387904`}, // count whose byte size overflows
		{`"Days":[0,`, `"Days":[`},                   // rows one value longer than the window
	} {
		h := strings.Replace(header, c.from, c.to, 1)
		if h == header {
			t.Fatalf("header has no %q to replace", c.from)
		}
		mut := binary.LittleEndian.AppendUint32(nil, uint32(len(h)))
		mut = append(append(mut, h...), data[4+hlen:]...)
		if _, err := decodeEstimate(mut); err == nil {
			t.Fatalf("header %s -> %s accepted", c.from, c.to)
		}
	}
	ragged := testEstimate()
	ragged.Draws[7] = ragged.Draws[7][:10]
	if _, err := encodeEstimate(ragged); err == nil {
		t.Fatal("ragged draws encoded")
	}
}

var sinkProduct []byte

// BenchmarkEstimateProduct times the estimate product's codec on one daily
// cycle's estimate (200 draws over 75 days) — the serialization rung
// between BenchmarkFigure2GoldsteinRt and BenchmarkFigure2EnsembleAggregation.
func BenchmarkEstimateProduct(b *testing.B) {
	est := testEstimate()
	data, err := encodeEstimate(est)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if sinkProduct, err = encodeEstimate(est); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := decodeEstimate(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
