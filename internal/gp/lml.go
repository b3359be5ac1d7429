package gp

import (
	"math"

	"osprey/internal/linalg"
	"osprey/internal/parallel"
)

// pairRow returns the index of pair (i, 0) in the packed lower-triangle
// pair ordering (1,0), (2,0), (2,1), (3,0), …: row i's pairs (i, 0) …
// (i, i-1) are contiguous, starting here.
func pairRow(i int) int {
	return i * (i - 1) / 2
}

// packSquaredDiffs precomputes (x[i][t]-x[j][t])² for every pair j<i and
// dimension t, pair-major: sq[p*d+t] for pair p. The tensor depends only on
// the training inputs, so it is built once per optimize() and shared
// read-only by every restart's evaluator.
func packSquaredDiffs(x [][]float64, d int) []float64 {
	n := len(x)
	if n < 2 {
		return nil
	}
	sq := make([]float64, pairRow(n)*d)
	parallel.ForChunk(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xi := x[i]
			row := sq[pairRow(i)*d : pairRow(i+1)*d]
			for j := 0; j < i; j++ {
				xj := x[j]
				pair := row[j*d : j*d+d]
				for t := range pair {
					df := xi[t] - xj[t]
					pair[t] = df * df
				}
			}
		}
	})
	return sq
}

// lmlEvaluator computes the negative log marginal likelihood for one
// hyperparameter vector. Each multi-start restart owns one evaluator, and
// the evaluator owns every buffer an evaluation writes — the covariance K,
// its Cholesky factor and the forward-solve output — so restarts run
// concurrently without sharing mutable state and an evaluation allocates
// nothing. The training inputs are consumed through the packed
// squared-difference tensor, turning each kernel entry into a d-term
// multiply-add plus one transcendental instead of a coordinate-space
// distance rebuild.
type lmlEvaluator struct {
	kind        KernelKind
	n, d        int
	fixedNugget float64
	sq          []float64 // shared, read-only
	y           []float64 // shared, read-only

	// Per-evaluation kernel parameters, read by fillRows.
	invls2      []float64 // exp(-2θ_t) = 1/ls_t² per dimension
	sf2, nugget float64

	k    *linalg.Dense // lower triangle only; the upper stays zero
	chol linalg.Cholesky
	w    []float64 // forward-solve output
	fill func(lo, hi int)
}

func newLMLEvaluator(g *GP, sq []float64) *lmlEvaluator {
	return newLMLEvaluatorRaw(g.kind, g.dim, g.opts.FixedNugget, sq, g.y)
}

// newLMLEvaluatorRaw builds an evaluator from raw pieces — kernel family,
// dimension, the packed squared-diff tensor, and standardized targets — so
// the sparse surrogate's inducing-subset fit can reuse the exact dense
// likelihood machinery without a fitted GP in hand.
func newLMLEvaluatorRaw(kind KernelKind, d int, fixedNugget float64, sq, y []float64) *lmlEvaluator {
	n := len(y)
	e := &lmlEvaluator{
		kind:        kind,
		n:           n,
		d:           d,
		fixedNugget: fixedNugget,
		sq:          sq,
		y:           y,
		invls2:      make([]float64, d),
		k:           linalg.NewDense(n, n),
		chol:        linalg.Cholesky{L: linalg.NewDense(n, n)},
		w:           make([]float64, n),
	}
	// Bound once here: a method value taken per evaluation would allocate.
	e.fill = e.fillRows
	return e
}

// hyperStarts builds the deterministic multi-start grid shared by the dense
// fit and the sparse subset fit: a moderate-lengthscale base point (unit
// signal variance on standardized targets) plus `restarts` progressively
// rougher, lower-noise perturbations. theta layout:
// [log ls_1..log ls_d, log sf2, (log nugget)].
func hyperStarts(dim, restarts int, fixedNugget float64) [][]float64 {
	nt := dim + 2
	if fixedNugget > 0 {
		nt = dim + 1
	}
	starts := make([][]float64, 0, restarts+1)
	base := make([]float64, nt)
	for i := 0; i < dim; i++ {
		base[i] = math.Log(0.3) // moderate lengthscale on unit-cube inputs
	}
	base[dim] = 0 // sf2 = 1 on standardized targets
	if fixedNugget <= 0 {
		base[dim+1] = math.Log(1e-4)
	}
	starts = append(starts, base)
	for r := 1; r <= restarts; r++ {
		s := append([]float64(nil), base...)
		for i := 0; i < dim; i++ {
			s[i] = math.Log(0.1 * math.Pow(3, float64(r)))
		}
		if fixedNugget <= 0 {
			s[dim+1] = math.Log(math.Pow(10, float64(-2-r)))
		}
		starts = append(starts, s)
	}
	return starts
}

// negLML evaluates -log p(y | θ). Only the Cholesky factor and a forward
// solve are needed: yᵀK⁻¹y = ‖L⁻¹y‖², so the back substitution the full
// solve would do is skipped.
func (e *lmlEvaluator) negLML(theta []float64) float64 {
	for _, v := range theta {
		// Guard against absurd scales that destabilize Cholesky.
		if v < -14 || v > 14 {
			return math.Inf(1)
		}
	}
	d := e.d
	for t := 0; t < d; t++ {
		e.invls2[t] = math.Exp(-2 * theta[t])
	}
	e.sf2 = math.Exp(theta[d])
	e.nugget = e.fixedNugget
	if e.nugget <= 0 {
		e.nugget = math.Exp(theta[d+1])
	}

	parallel.ForChunk(e.n, e.fill)
	if _, err := e.chol.RefactorJittered(e.k, 1e-10, 12); err != nil {
		return math.Inf(1)
	}
	e.chol.ForwardSolveTo(e.w, e.y)
	fn := float64(e.n)
	lml := -0.5*linalg.Dot(e.w, e.w) - 0.5*e.chol.LogDet() - 0.5*fn*math.Log(2*math.Pi)
	return -lml
}

// fillRows writes rows [lo, hi) of K's lower triangle — all the Cholesky
// reads. Row i reads its pairs contiguously from the packed tensor and is
// written only by the iteration that owns it.
func (e *lmlEvaluator) fillRows(lo, hi int) {
	d, kind, invls2, sf2 := e.d, e.kind, e.invls2, e.sf2
	for i := lo; i < hi; i++ {
		ki := e.k.Row(i)
		row := e.sq[pairRow(i)*d : pairRow(i+1)*d]
		for j := 0; j < i; j++ {
			s := 0.0
			for t, v := range row[j*d : j*d+d] {
				s += v * invls2[t]
			}
			var c float64
			switch kind {
			case SquaredExponential:
				c = math.Exp(-0.5 * s)
			case Matern52:
				r := math.Sqrt(5 * s)
				c = (1 + r + 5*s/3) * math.Exp(-r)
			default:
				panic("gp: unknown kernel kind")
			}
			ki[j] = sf2 * c
		}
		ki[i] = sf2 + e.nugget
	}
}
