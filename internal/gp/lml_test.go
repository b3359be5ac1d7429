package gp

import (
	"fmt"
	"math"
	"testing"

	"osprey/internal/linalg"
	"osprey/internal/obs"
	"osprey/internal/parallel"
)

// refNegLML is the likelihood evaluator the allocation-free one replaced,
// rebuilt as the bit-identity oracle: squared differences packed in
// upper-triangle pair order, the full K with every entry mirrored, and a
// freshly allocated jittered factorization.
type refNegLML struct {
	kind        KernelKind
	n, d        int
	fixedNugget float64
	sq, y       []float64
}

func newRefNegLML(kind KernelKind, x [][]float64, y []float64, fixedNugget float64) *refNegLML {
	n, d := len(x), len(x[0])
	sq := make([]float64, (n*(n-1)/2)*d)
	p := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for t := 0; t < d; t++ {
				df := x[i][t] - x[j][t]
				sq[p*d+t] = df * df
			}
			p++
		}
	}
	return &refNegLML{kind: kind, n: n, d: d, fixedNugget: fixedNugget, sq: sq, y: y}
}

func (e *refNegLML) negLML(theta []float64) float64 {
	for _, v := range theta {
		if v < -14 || v > 14 {
			return math.Inf(1)
		}
	}
	d, n := e.d, e.n
	invls2 := make([]float64, d)
	for t := 0; t < d; t++ {
		invls2[t] = math.Exp(-2 * theta[t])
	}
	sf2 := math.Exp(theta[d])
	nugget := e.fixedNugget
	if nugget <= 0 {
		nugget = math.Exp(theta[d+1])
	}
	k := linalg.NewDense(n, n)
	p := 0
	for i := 0; i < n; i++ {
		k.Set(i, i, sf2+nugget)
		for j := i + 1; j < n; j++ {
			s := 0.0
			row := e.sq[p*d : p*d+d]
			for t := 0; t < d; t++ {
				s += row[t] * invls2[t]
			}
			var c float64
			switch e.kind {
			case SquaredExponential:
				c = math.Exp(-0.5 * s)
			case Matern52:
				r := math.Sqrt(5 * s)
				c = (1 + r + 5*s/3) * math.Exp(-r)
			}
			v := sf2 * c
			k.Set(i, j, v)
			k.Set(j, i, v)
			p++
		}
	}
	ch, _, err := linalg.NewCholeskyJittered(k, 1e-10, 12)
	if err != nil {
		return math.Inf(1)
	}
	w := ch.ForwardSolve(e.y)
	lml := -0.5*linalg.Dot(w, w) - 0.5*ch.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)
	return -lml
}

// thetaGrid spans short to long lengthscales, small to large signal
// variance and (when fitted) nugget, plus one point outside the ±14 guard.
func thetaGrid(d int, fitNugget bool) [][]float64 {
	var grid [][]float64
	for _, lls := range []float64{math.Log(0.05), math.Log(0.3), math.Log(2)} {
		for _, lsf := range []float64{math.Log(0.5), math.Log(3)} {
			nuggets := []float64{0}
			if fitNugget {
				nuggets = []float64{math.Log(1e-8), math.Log(1e-3), math.Log(0.5)}
			}
			for _, lnug := range nuggets {
				th := make([]float64, d, d+2)
				for t := range th {
					th[t] = lls * (1 + 0.3*float64(t)) // anisotropic
				}
				th = append(th, lsf)
				if fitNugget {
					th = append(th, lnug)
				}
				grid = append(grid, th)
			}
		}
	}
	out := append([]float64(nil), grid[0]...)
	out[0] = 14.5
	return append(grid, out)
}

// jitterTheta makes K numerically singular: with every lengthscale e^10
// and a fixed nugget below rounding (a fitted one is floored at e^-14), the
// unjittered factorization fails and the jitter ladder must climb.
const jitterNugget = 1e-17

func jitterTheta(d int) []float64 {
	th := make([]float64, d+1)
	for t := 0; t < d; t++ {
		th[t] = 10
	}
	return th
}

// TestNegLMLMatchesReference pins the allocation-free evaluator
// (lower-triangle packing and assembly, reused K and factor) to the
// evaluator it replaced, bit for bit, for both kernels, fitted and fixed
// nugget, on the dense training set and on the sparse fit's inducing
// subset — including a θ that forces the jitter ladder and one outside the
// ±14 guard.
func TestNegLMLMatchesReference(t *testing.T) {
	x, yraw := fitTestData(60, 11)
	mean, sd := standardizeTargets(yraw)
	y := make([]float64, len(yraw))
	for i, v := range yraw {
		y[i] = (v - mean) / sd
	}
	idx := greedyInducing(x, 25)
	xu := make([][]float64, len(idx))
	yu := make([]float64, len(idx))
	for i, id := range idx {
		xu[i], yu[i] = x[id], y[id]
	}
	sets := []struct {
		name string
		x    [][]float64
		y    []float64
	}{{"dense", x, y}, {"sparse-subset", xu, yu}}

	jitterRetries := obs.GetCounter("linalg.chol.jitter_retries")
	for _, set := range sets {
		d := len(set.x[0])
		sq := packSquaredDiffs(set.x, d)
		for _, kind := range []KernelKind{SquaredExponential, Matern52} {
			for _, fixed := range []float64{0, 1e-3, jitterNugget} {
				label := fmt.Sprintf("%s/%s/fixed=%g", set.name, kind, fixed)
				ref := newRefNegLML(kind, set.x, set.y, fixed)
				got := newLMLEvaluatorRaw(kind, d, fixed, sq, set.y)
				grid := thetaGrid(d, fixed <= 0)
				if fixed == jitterNugget {
					grid = append(grid, jitterTheta(d))
				}
				for _, th := range grid {
					before := jitterRetries.Value()
					want := ref.negLML(th)
					climbed := jitterRetries.Value() > before
					g := got.negLML(th)
					if math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("%s θ=%v: negLML %v (%x), want %v (%x)", label, th, g, math.Float64bits(g), want, math.Float64bits(want))
					}
					if th[0] == 10 && !climbed {
						t.Fatalf("%s: θ=%v did not climb the jitter ladder", label, th)
					}
					if th[0] == 14.5 && !math.IsInf(g, 1) {
						t.Fatalf("%s: θ outside the guard gave %v", label, g)
					}
				}
			}
		}
	}
}

// TestBuildKLowerTriangleFactor checks the fitted model's factor: K built
// lower-triangle-only factors to exactly the factor of the full mirrored K.
func TestBuildKLowerTriangleFactor(t *testing.T) {
	x, y := fitTestData(40, 5)
	for _, kind := range []KernelKind{SquaredExponential, Matern52} {
		g, err := Fit(x, y, Options{Kernel: kind, MaxIter: 40})
		if err != nil {
			t.Fatal(err)
		}
		n := len(g.x)
		full := linalg.NewDense(n, n)
		for i := 0; i < n; i++ {
			full.Set(i, i, g.sf2+g.nugget)
			for j := i + 1; j < n; j++ {
				v := g.sf2 * corr(g.kind, g.x[i], g.x[j], g.ls)
				full.Set(i, j, v)
				full.Set(j, i, v)
			}
		}
		want, jit, err := linalg.NewCholeskyJittered(full, 1e-10, 12)
		if err != nil {
			t.Fatal(err)
		}
		if jit != g.jitter {
			t.Fatalf("%s: jitter %v, want %v", kind, g.jitter, jit)
		}
		for i, v := range want.L.Data {
			if math.Float64bits(v) != math.Float64bits(g.chol.L.Data[i]) {
				t.Fatalf("%s: factor differs at flat index %d", kind, i)
			}
		}
	}
}

// TestNegLMLAllocationFree gates the steady-state evaluation at n=60: K,
// the factor and the solve scratch are all reused. It runs at one worker,
// where the row loop is inline; with more workers ForChunk's fan-out
// allocates its own goroutine bookkeeping, independent of this code.
func TestNegLMLAllocationFree(t *testing.T) {
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	x, y := fitTestData(60, 3)
	for _, kind := range []KernelKind{SquaredExponential, Matern52} {
		e := newLMLEvaluatorRaw(kind, 3, 0, packSquaredDiffs(x, 3), y)
		th := []float64{math.Log(0.3), math.Log(0.4), math.Log(0.5), 0, math.Log(1e-4)}
		e.negLML(th)
		if allocs := testing.AllocsPerRun(20, func() { e.negLML(th) }); allocs != 0 {
			t.Fatalf("%s: %v allocs per negLML, want 0", kind, allocs)
		}
	}
}

// lmlSink keeps the benchmarked evaluation from being optimized away.
var lmlSink float64

// BenchmarkNegLML times one likelihood evaluation at the training-set sizes
// a MUSIC refit sees (the Cholesky → GP-fit rungs of the numerics ladder).
func BenchmarkNegLML(b *testing.B) {
	for _, n := range []int{60, 120} {
		x, y := fitTestData(n, 3)
		e := newLMLEvaluatorRaw(SquaredExponential, 3, 0, packSquaredDiffs(x, 3), y)
		th := []float64{math.Log(0.3), math.Log(0.4), math.Log(0.5), 0, math.Log(1e-4)}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lmlSink = e.negLML(th)
			}
		})
	}
}
