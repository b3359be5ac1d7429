package linalg

import (
	"errors"
	"math"

	"osprey/internal/obs"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization fails.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// mCholJitterRetries counts NewCholeskyJittered retry attempts (one per
// jitter rung actually tried), surfacing surrogate-fit instability in
// /metrics.
var mCholJitterRetries = obs.GetCounter("linalg.chol.jitter_retries")

// Cholesky holds the lower-triangular factor L of a symmetric
// positive-definite matrix A = L Lᵀ.
type Cholesky struct {
	L *Dense
}

// NewCholesky factors the symmetric positive-definite matrix a. Only the
// lower triangle of a is read. It returns ErrNotPositiveDefinite when a
// pivot is non-positive (within a small tolerance for numerical noise).
//
// Matrices of cholBlockedMin rows or more go through the cache-tiled
// blocked factorization (see cholesky_blocked.go), which is bit-identical
// at any worker count; smaller matrices use the row-blocked scalar kernel.
// The two paths fix different (both deterministic) summation orders, so
// they agree to rounding error, not bitwise; the crossover depends only on
// n.
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.Rows != a.Cols {
		panic("linalg: Cholesky of non-square matrix")
	}
	c := &Cholesky{L: NewDense(a.Rows, a.Rows)}
	if err := c.factor(a, 0); err != nil {
		return nil, err
	}
	return c, nil
}

// factor writes the factor of a + jitter·I into c.L, which must be n×n
// with a zero strict upper triangle; neither kernel writes above the
// diagonal, so a reused L keeps it zero.
func (c *Cholesky) factor(a *Dense, jitter float64) error {
	if a.Rows >= cholBlockedMin {
		return cholBlockedInto(c.L, a, jitter)
	}
	return cholScalarInto(c.L, a, jitter)
}

// NewCholeskyJittered retries the factorization with a deterministic
// exponential jitter ladder (jitter0, 10·jitter0, 100·jitter0, …) until it
// succeeds or maxTries is exhausted. Each rung factors a with its diagonal
// read as exactly original+jitter, so the attempt sequence depends only on
// (a, jitter0, maxTries). Every retry increments the
// linalg.chol.jitter_retries counter, making surrogate-fit instability
// visible in /metrics. It returns the factor along with the jitter that was
// finally applied. This is the standard guard for Gaussian-process
// covariance matrices that are numerically semi-definite.
func NewCholeskyJittered(a *Dense, jitter0 float64, maxTries int) (*Cholesky, float64, error) {
	c := new(Cholesky)
	jit, err := c.RefactorJittered(a, jitter0, maxTries)
	if err != nil {
		return nil, 0, err
	}
	return c, jit, nil
}

// RefactorJittered is NewCholeskyJittered into c's own storage: c.L is
// reused when it already has a's size (a zero Cholesky gets one
// allocation), so a caller that factors same-sized matrices over and over
// — a likelihood evaluator — allocates nothing, on any jitter rung. The
// factor and jitter are bit-identical to NewCholeskyJittered's. A reused
// c.L must have a zero strict upper triangle, as every factor from this
// package has. After an error c.L holds no valid factor.
func (c *Cholesky) RefactorJittered(a *Dense, jitter0 float64, maxTries int) (float64, error) {
	if a.Rows != a.Cols {
		panic("linalg: Cholesky of non-square matrix")
	}
	if c.L == nil || c.L.Rows != a.Rows {
		c.L = NewDense(a.Rows, a.Rows)
	}
	if jitter0 <= 0 {
		jitter0 = 1e-10
	}
	if c.factor(a, 0) == nil {
		return 0, nil
	}
	j := jitter0
	for try := 0; try < maxTries; try++ {
		mCholJitterRetries.Inc()
		if c.factor(a, j) == nil {
			return j, nil
		}
		j *= 10
	}
	return 0, ErrNotPositiveDefinite
}

// SolveVec solves A x = b given the factorization, overwriting nothing.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	y := c.ForwardSolve(b)
	return c.BackSolve(y)
}

// ForwardSolve solves L y = b.
func (c *Cholesky) ForwardSolve(b []float64) []float64 {
	y := make([]float64, c.L.Rows)
	c.ForwardSolveTo(y, b)
	return y
}

// ForwardSolveTo solves L y = b into the caller-supplied slice dst, which
// may alias b. It allocates nothing, which is what makes batched GP
// prediction allocation-free in steady state.
//
// Large factors use a tiled traversal that keeps each cholTile-wide slice
// of the solution hot while every row of a block consumes it. The
// subtraction sequence per element is exactly the scalar one (ascending k),
// so the result is bit-identical to the scalar loop for every n.
func (c *Cholesky) ForwardSolveTo(dst, b []float64) {
	n := c.L.Rows
	if len(b) != n || len(dst) != n {
		panic("linalg: ForwardSolveTo dimension mismatch")
	}
	if n < cholBlockedMin {
		for i := 0; i < n; i++ {
			s := b[i]
			li := c.L.Row(i)
			for k := 0; k < i; k++ {
				s -= li[k] * dst[k]
			}
			dst[i] = s / li[i]
		}
		return
	}
	if &dst[0] != &b[0] {
		copy(dst, b)
	}
	for ib := 0; ib < n; ib += cholTile {
		ie := min(ib+cholTile, n)
		for kb := 0; kb < ib; kb += cholTile {
			ke := kb + cholTile // kb < ib implies a full tile
			for i := ib; i < ie; i++ {
				li := c.L.Row(i)
				s := dst[i]
				for k := kb; k < ke; k++ {
					s -= li[k] * dst[k]
				}
				dst[i] = s
			}
		}
		for i := ib; i < ie; i++ {
			li := c.L.Row(i)
			s := dst[i]
			for k := ib; k < i; k++ {
				s -= li[k] * dst[k]
			}
			dst[i] = s / li[i]
		}
	}
}

// BackSolve solves Lᵀ x = y.
func (c *Cholesky) BackSolve(y []float64) []float64 {
	x := make([]float64, c.L.Rows)
	c.BackSolveTo(x, y)
	return x
}

// BackSolveTo solves Lᵀ x = y into the caller-supplied slice dst, which may
// alias y. It allocates nothing.
//
// The scalar back substitution walks a column of the row-major factor — a
// stride-n access per element — so factors of cholBlockedMin rows or more
// use a blocked traversal instead: each cholTile-row block first absorbs
// the already-solved trailing blocks' contributions row-contiguously
// (ascending k), then back-substitutes its diagonal tile. Trailing
// contributions land before in-tile ones, so the blocked result can differ
// from the scalar path in the last ulp; both paths are serial and
// deterministic, and the crossover depends only on n.
func (c *Cholesky) BackSolveTo(dst, y []float64) {
	n := c.L.Rows
	if len(y) != n || len(dst) != n {
		panic("linalg: BackSolveTo dimension mismatch")
	}
	if n < cholBlockedMin {
		for i := n - 1; i >= 0; i-- {
			s := y[i]
			for k := i + 1; k < n; k++ {
				s -= c.L.At(k, i) * dst[k]
			}
			dst[i] = s / c.L.At(i, i)
		}
		return
	}
	copy(dst, y)
	first := ((n - 1) / cholTile) * cholTile
	for ib := first; ib >= 0; ib -= cholTile {
		ie := min(ib+cholTile, n)
		for k := ie; k < n; k++ {
			lk := c.L.Row(k)
			xk := dst[k]
			for i := ib; i < ie; i++ {
				dst[i] -= lk[i] * xk
			}
		}
		for i := ie - 1; i >= ib; i-- {
			s := dst[i]
			for k := i + 1; k < ie; k++ {
				s -= c.L.At(k, i) * dst[k]
			}
			dst[i] = s / c.L.At(i, i)
		}
	}
}

// SolveMat solves A X = B column by column.
func (c *Cholesky) SolveMat(b *Dense) *Dense {
	if b.Rows != c.L.Rows {
		panic("linalg: SolveMat dimension mismatch")
	}
	out := NewDense(b.Rows, b.Cols)
	col := make([]float64, b.Rows)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < b.Rows; i++ {
			col[i] = b.At(i, j)
		}
		x := c.SolveVec(col)
		for i := 0; i < b.Rows; i++ {
			out.Set(i, j, x[i])
		}
	}
	return out
}

// LogDet returns log |A| = 2 * sum(log L_ii).
func (c *Cholesky) LogDet() float64 {
	s := 0.0
	for i := 0; i < c.L.Rows; i++ {
		s += math.Log(c.L.At(i, i))
	}
	return 2 * s
}
