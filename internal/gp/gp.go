// Package gp implements Gaussian-process regression: the surrogate model at
// the heart of the MUSIC active-learning GSA (§3.1.2 of the paper). The
// paper uses the R hetGP package; this implementation provides anisotropic
// squared-exponential and Matérn-5/2 kernels with a fitted nugget, trained
// by maximizing the log marginal likelihood with multi-start Nelder–Mead.
//
// The heteroskedastic extension of hetGP is not needed for the paper's
// experiment design — each GSA replicate fixes the model's random seed, so
// the response the surrogate sees is deterministic and a homoskedastic
// nugget suffices (see DESIGN.md substitution table).
package gp

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"osprey/internal/linalg"
	"osprey/internal/optim"
	"osprey/internal/parallel"
)

// KernelKind selects the covariance family.
type KernelKind int

const (
	// SquaredExponential is the infinitely smooth RBF kernel.
	SquaredExponential KernelKind = iota
	// Matern52 is the twice-differentiable Matérn nu=5/2 kernel.
	Matern52
)

func (k KernelKind) String() string {
	switch k {
	case SquaredExponential:
		return "squared-exponential"
	case Matern52:
		return "matern52"
	default:
		return fmt.Sprintf("KernelKind(%d)", int(k))
	}
}

// corr evaluates the correlation (unit-variance kernel) between points a
// and b under per-dimension lengthscales ls.
func corr(kind KernelKind, a, b, ls []float64) float64 {
	switch kind {
	case SquaredExponential:
		s := 0.0
		for i := range a {
			d := (a[i] - b[i]) / ls[i]
			s += d * d
		}
		return math.Exp(-0.5 * s)
	case Matern52:
		s := 0.0
		for i := range a {
			d := (a[i] - b[i]) / ls[i]
			s += d * d
		}
		r := math.Sqrt(5 * s)
		return (1 + r + 5*s/3) * math.Exp(-r)
	default:
		panic("gp: unknown kernel kind")
	}
}

// Options configures model fitting.
type Options struct {
	Kernel KernelKind
	// MaxIter bounds each Nelder–Mead run (default 200).
	MaxIter int
	// Restarts is the number of extra multi-start points (default 2).
	Restarts int
	// FixedNugget, when > 0, pins the nugget variance (on the
	// standardized-y scale) instead of fitting it.
	FixedNugget float64
}

// GP is a fitted Gaussian-process regression model. Construct with Fit; the
// zero value is not usable.
type GP struct {
	kind KernelKind
	x    [][]float64
	y    []float64 // standardized observations
	dim  int

	// Hyperparameters (on the standardized-y scale).
	ls     []float64 // per-dimension lengthscales
	sf2    float64   // signal variance
	nugget float64   // observation noise variance

	// Standardization of the raw targets.
	yMean, yStd float64

	chol   *linalg.Cholesky
	alpha  []float64 // K⁻¹ y
	lml    float64   // log marginal likelihood at the fitted parameters
	jitter float64   // diagonal jitter applied during factorization
	opts   Options

	// gen changes whenever the hyperparameters change, so kernel-column
	// caches (MeanCache) can tell "same GP, more training points" apart
	// from "refit with new lengthscales". Appending data without
	// reoptimizing leaves gen untouched.
	gen uint64
}

// genCounter hands out process-unique generation numbers so that a gen value
// is never reused, even across distinct GP instances at the same address.
var genCounter atomic.Uint64

// ErrNoData is returned when Fit receives an empty training set.
var ErrNoData = errors.New("gp: empty training set")

// Fit trains a GP on inputs x (n points of equal dimension) and targets y.
func Fit(x [][]float64, y []float64, opts Options) (*GP, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, ErrNoData
	}
	d := len(x[0])
	for _, xi := range x {
		if len(xi) != d {
			return nil, errors.New("gp: ragged input points")
		}
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 200
	}
	if opts.Restarts < 0 {
		opts.Restarts = 0
	}

	g := &GP{kind: opts.Kernel, dim: d, opts: opts}
	g.x = make([][]float64, n)
	for i := range x {
		g.x[i] = append([]float64(nil), x[i]...)
	}

	// Standardize targets for stable hyperparameter scales.
	mean, sd := standardizeTargets(y)
	g.yMean, g.yStd = mean, sd
	g.y = make([]float64, n)
	for i, v := range y {
		g.y[i] = (v - mean) / sd
	}

	if err := g.optimize(); err != nil {
		return nil, err
	}
	return g, nil
}

// theta packs log hyperparameters: [log ls_1..log ls_d, log sf2, (log nugget)].
func (g *GP) nTheta() int {
	if g.opts.FixedNugget > 0 {
		return g.dim + 1
	}
	return g.dim + 2
}

func (g *GP) applyTheta(theta []float64) {
	g.ls = make([]float64, g.dim)
	for i := 0; i < g.dim; i++ {
		g.ls[i] = math.Exp(theta[i])
	}
	g.sf2 = math.Exp(theta[g.dim])
	if g.opts.FixedNugget > 0 {
		g.nugget = g.opts.FixedNugget
	} else {
		g.nugget = math.Exp(theta[g.dim+1])
	}
	g.gen = genCounter.Add(1)
}

// buildK assembles the lower triangle of the covariance matrix — all the
// Cholesky reads — with the current parameters. Rows are built across the
// worker pool and each row is written only by the iteration that owns it,
// so the result is identical to the serial construction.
func (g *GP) buildK() *linalg.Dense {
	n := len(g.x)
	k := linalg.NewDense(n, n)
	parallel.ForChunk(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ki := k.Row(i)
			for j := 0; j < i; j++ {
				ki[j] = g.sf2 * corr(g.kind, g.x[j], g.x[i], g.ls)
			}
			ki[i] = g.sf2 + g.nugget
		}
	})
	return k
}

// factor refreshes the Cholesky factor and alpha = K⁻¹y; returns the log
// marginal likelihood.
func (g *GP) factor() (float64, error) {
	k := g.buildK()
	ch, jit, err := linalg.NewCholeskyJittered(k, 1e-10, 12)
	if err != nil {
		return math.Inf(-1), err
	}
	g.chol, g.jitter = ch, jit
	g.alpha = ch.SolveVec(g.y)
	n := float64(len(g.y))
	lml := -0.5*linalg.Dot(g.y, g.alpha) - 0.5*ch.LogDet() - 0.5*n*math.Log(2*math.Pi)
	g.lml = lml
	return lml, nil
}

func (g *GP) optimize() error {
	// Pack every pairwise per-dimension squared difference once; each of the
	// hundreds of Nelder–Mead likelihood evaluations then assembles K as a
	// fused multiply-add over the cached diffs instead of rebuilding scaled
	// distances from raw coordinates (see lml.go).
	sq := packSquaredDiffs(g.x, g.dim)
	starts := hyperStarts(g.dim, g.opts.Restarts, g.opts.FixedNugget)

	// Each restart gets its own evaluator (the evaluator carries the K and
	// solve scratch that the serial objective used to keep on g), so the
	// restarts run concurrently; the ordered reduction in MultiStartParallel
	// keeps the winner identical at any worker count.
	objFor := func(int) func([]float64) float64 {
		return newLMLEvaluator(g, sq).negLML
	}
	res := optim.MultiStartParallel(objFor, starts, optim.NelderMeadOptions{MaxIter: g.opts.MaxIter})
	if math.IsInf(res.F, 1) {
		return errors.New("gp: hyperparameter optimization failed to find a feasible point")
	}
	g.applyTheta(res.X)
	_, err := g.factor()
	return err
}

// predictScratch is the reusable working set of one prediction: the kernel
// cross-covariance vector and the forward-solve output. Pooling it makes
// Predict allocation-free in steady state while staying safe for concurrent
// callers (each in-flight prediction holds its own scratch).
type predictScratch struct{ k, v []float64 }

var scratchPool = sync.Pool{New: func() any { return new(predictScratch) }}

// grow returns buf resized to length n, reallocating only when the capacity
// is insufficient. Contents are not preserved.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// predictWith computes the posterior mean and variance at x using
// caller-owned scratch. This is the single prediction kernel behind Predict,
// PredictBatch, and Predictor, so all three are bit-identical by
// construction.
func (g *GP) predictWith(x []float64, s *predictScratch) (mean, variance float64) {
	if len(x) != g.dim {
		panic("gp: Predict dimension mismatch")
	}
	n := len(g.x)
	s.k = grow(s.k, n)
	s.v = grow(s.v, n)
	for i := 0; i < n; i++ {
		s.k[i] = g.sf2 * corr(g.kind, x, g.x[i], g.ls)
	}
	mu := linalg.Dot(s.k, g.alpha)
	g.chol.ForwardSolveTo(s.v, s.k)
	variance = g.sf2 - linalg.Dot(s.v, s.v)
	if variance < 0 {
		variance = 0
	}
	mean = g.yMean + g.yStd*mu
	variance *= g.yStd * g.yStd
	return mean, variance
}

// Predict returns the posterior mean and variance at point x (raw scale).
// The variance includes the latent-function uncertainty but not the nugget;
// use PredictNoisy for the predictive variance of a new noisy observation.
func (g *GP) Predict(x []float64) (mean, variance float64) {
	s := scratchPool.Get().(*predictScratch)
	mean, variance = g.predictWith(x, s)
	scratchPool.Put(s)
	return mean, variance
}

// PredictNoisy returns the predictive mean and variance for a new noisy
// observation at x (latent variance plus nugget).
func (g *GP) PredictNoisy(x []float64) (mean, variance float64) {
	m, v := g.Predict(x)
	return m, v + g.nugget*g.yStd*g.yStd
}

// PredictBatch evaluates Predict over many points across the worker pool.
// Each point is computed with the same kernel as Predict and written to its
// own output slot, so the result is bit-identical to the serial loop at any
// worker count.
func (g *GP) PredictBatch(xs [][]float64) (means, variances []float64) {
	means = make([]float64, len(xs))
	variances = make([]float64, len(xs))
	parallel.ForChunk(len(xs), func(lo, hi int) {
		s := scratchPool.Get().(*predictScratch)
		for i := lo; i < hi; i++ {
			means[i], variances[i] = g.predictWith(xs[i], s)
		}
		scratchPool.Put(s)
	})
	return means, variances
}

// Add appends a training observation. When reoptimize is true the
// hyperparameters are refit from scratch; otherwise only the factorization
// is refreshed with the existing hyperparameters (the cheap path used
// between MUSIC refit intervals).
func (g *GP) Add(x []float64, y float64, reoptimize bool) error {
	if len(x) != g.dim {
		return errors.New("gp: Add dimension mismatch")
	}
	g.x = append(g.x, append([]float64(nil), x...))
	g.y = append(g.y, (y-g.yMean)/g.yStd)
	if reoptimize {
		// Re-standardize from raw targets to keep scales honest.
		raw := make([]float64, len(g.y))
		for i, v := range g.y {
			raw[i] = g.yMean + g.yStd*v
		}
		ng, err := Fit(g.x, raw, g.opts)
		if err != nil {
			return err
		}
		*g = *ng
		return nil
	}
	_, err := g.factor()
	return err
}

// N returns the number of training points.
func (g *GP) N() int { return len(g.x) }

// Dim returns the input dimension.
func (g *GP) Dim() int { return g.dim }

// LogMarginalLikelihood returns the LML at the fitted hyperparameters.
func (g *GP) LogMarginalLikelihood() float64 { return g.lml }

// Lengthscales returns a copy of the fitted per-dimension lengthscales.
func (g *GP) Lengthscales() []float64 { return append([]float64(nil), g.ls...) }

// Nugget returns the fitted (or fixed) nugget variance on the raw-y scale.
func (g *GP) Nugget() float64 { return g.nugget * g.yStd * g.yStd }

// TrainingInputs returns a deep copy of the training inputs. (It used to
// return the internal slice, which let callers mutate training data under a
// fitted factorization — predictions would silently diverge from the
// factor.)
func (g *GP) TrainingInputs() [][]float64 {
	out := make([][]float64, len(g.x))
	for i, xi := range g.x {
		out[i] = append([]float64(nil), xi...)
	}
	return out
}

// TrainingTargets returns the raw-scale training targets.
func (g *GP) TrainingTargets() []float64 {
	out := make([]float64, len(g.y))
	for i, v := range g.y {
		out[i] = g.yMean + g.yStd*v
	}
	return out
}

// Hyperparams is the exportable state of a fitted GP (excluding training
// data), used to checkpoint and restore surrogates without re-running the
// optimizer.
type Hyperparams struct {
	Kernel       KernelKind `json:"kernel"`
	Lengthscales []float64  `json:"lengthscales"`
	SignalVar    float64    `json:"signal_var"`
	NuggetVar    float64    `json:"nugget_var"`
	YMean        float64    `json:"y_mean"`
	YStd         float64    `json:"y_std"`
	// Surrogate records which implementation produced these hyperparameters.
	// Checkpoints written before the sparse path existed decode to the zero
	// value, DenseSurrogate, which is what they were.
	Surrogate SurrogateKind `json:"surrogate,omitempty"`
	// Inducing is the sparse surrogate's inducing-point budget (sparse only).
	Inducing int `json:"inducing,omitempty"`
	// InducingIdx are the training-set indices of the selected inducing
	// points (sparse only). Recording them — rather than re-selecting at
	// restore time over a possibly grown training set — is what keeps a
	// checkpoint resume bit-identical to an uninterrupted run.
	InducingIdx []int `json:"inducing_idx,omitempty"`
}

// Hyperparams exports the fitted hyperparameters.
func (g *GP) Hyperparams() Hyperparams {
	return Hyperparams{
		Kernel:       g.kind,
		Lengthscales: append([]float64(nil), g.ls...),
		SignalVar:    g.sf2,
		NuggetVar:    g.nugget,
		YMean:        g.yMean,
		YStd:         g.yStd,
	}
}

// Restore rebuilds a GP from training data and previously fitted
// hyperparameters, skipping optimization. The result predicts identically
// to the GP the hyperparameters came from (given the same data).
func Restore(x [][]float64, y []float64, hp Hyperparams, opts Options) (*GP, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, ErrNoData
	}
	d := len(x[0])
	if len(hp.Lengthscales) != d {
		return nil, errors.New("gp: hyperparameter dimension mismatch")
	}
	if hp.YStd <= 0 || hp.SignalVar <= 0 {
		return nil, errors.New("gp: invalid hyperparameters")
	}
	g := &GP{
		kind: hp.Kernel, dim: d, opts: opts,
		ls:  append([]float64(nil), hp.Lengthscales...),
		sf2: hp.SignalVar, nugget: hp.NuggetVar,
		yMean: hp.YMean, yStd: hp.YStd,
	}
	g.x = make([][]float64, n)
	for i := range x {
		if len(x[i]) != d {
			return nil, errors.New("gp: ragged input points")
		}
		g.x[i] = append([]float64(nil), x[i]...)
	}
	g.y = make([]float64, n)
	for i, v := range y {
		g.y[i] = (v - hp.YMean) / hp.YStd
	}
	g.gen = genCounter.Add(1)
	if _, err := g.factor(); err != nil {
		return nil, err
	}
	return g, nil
}

// PredictMean returns only the posterior mean at x. It skips the O(n²)
// triangular solve that the variance requires, which makes surrogate-based
// Sobol index estimation (thousands of mean evaluations per snapshot)
// roughly an order of magnitude cheaper.
func (g *GP) PredictMean(x []float64) float64 {
	if len(x) != g.dim {
		panic("gp: PredictMean dimension mismatch")
	}
	n := len(g.x)
	s := 0.0
	for i := 0; i < n; i++ {
		s += g.alpha[i] * corr(g.kind, x, g.x[i], g.ls)
	}
	return g.yMean + g.yStd*g.sf2*s
}
