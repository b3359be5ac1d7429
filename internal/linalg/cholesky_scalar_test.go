package linalg

import (
	"math"
	"testing"
)

// refCholeskyScalar is the single-accumulator column loop the scalar
// kernel replaced, kept verbatim as the bit-identity oracle.
func refCholeskyScalar(a *Dense) (*Cholesky, error) {
	n := a.Rows
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		dj := math.Sqrt(d)
		lj[j] = dj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			li := l.Row(i)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			li[j] = s / dj
		}
	}
	return &Cholesky{L: l}, nil
}

// refCholeskyJittered is the clone-and-retry jitter ladder the reuse path
// replaced, over the given unjittered factorization.
func refCholeskyJittered(a *Dense, jitter0 float64, maxTries int, fact func(*Dense) (*Cholesky, error)) (*Cholesky, float64, error) {
	if jitter0 <= 0 {
		jitter0 = 1e-10
	}
	if ch, err := fact(a); err == nil {
		return ch, 0, nil
	}
	n := a.Rows
	b := a.Clone()
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = a.At(i, i)
	}
	j := jitter0
	for try := 0; try < maxTries; try++ {
		for i := 0; i < n; i++ {
			b.Set(i, i, diag[i]+j)
		}
		if ch, err := fact(b); err == nil {
			return ch, j, nil
		}
		j *= 10
	}
	return nil, 0, ErrNotPositiveDefinite
}

// factorWith runs one kernel, unjittered, into fresh storage.
func factorWith(kernel func(l, a *Dense, jitter float64) error, a *Dense) (*Cholesky, error) {
	l := NewDense(a.Rows, a.Rows)
	if err := kernel(l, a, 0); err != nil {
		return nil, err
	}
	return &Cholesky{L: l}, nil
}

// seNuggetMatrix is a GP covariance as the likelihood evaluator builds it:
// an anisotropic squared-exponential kernel over a deterministic 3-D
// scatter, signal variance sf2, plus a nugget on the diagonal.
func seNuggetMatrix(n int, sf2, nugget float64) *Dense {
	ls := []float64{0.35, 0.8, 0.2}
	pt := func(i int) [3]float64 {
		f := float64(i)
		return [3]float64{math.Mod(f*0.6180339887, 1), math.Mod(f*0.7548776662, 1), math.Mod(f*0.5698402910, 1)}
	}
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		pi := pt(i)
		for j := 0; j <= i; j++ {
			pj := pt(j)
			s := 0.0
			for t := range ls {
				d := (pi[t] - pj[t]) / ls[t]
				s += d * d
			}
			v := sf2 * math.Exp(-0.5*s)
			if i == j {
				v += nugget
			}
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// requireSameFactor compares every lower-triangle entry bit for bit and
// checks the strict upper triangle is zero.
func requireSameFactor(t *testing.T, label string, want, got *Cholesky) {
	t.Helper()
	n := want.L.Rows
	if got.L.Rows != n {
		t.Fatalf("%s: factor is %d rows, want %d", label, got.L.Rows, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w, g := want.L.At(i, j), got.L.At(i, j)
			if j > i {
				if g != 0 {
					t.Fatalf("%s: upper-triangle entry (%d,%d) = %v, want 0", label, i, j, g)
				}
				continue
			}
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("%s: L[%d][%d] = %x, want %x", label, i, j, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}

// TestScalarCholeskyBitIdentical pins the row-blocked scalar kernel to the
// single-accumulator loop it replaced, bit for bit, at every size below the
// crossover (so every remainder of n mod 4), through the allocating entry
// point and through a reused factor.
func TestScalarCholeskyBitIdentical(t *testing.T) {
	reused := new(Cholesky)
	for n := 1; n < cholBlockedMin; n++ {
		for _, m := range []struct {
			name string
			a    *Dense
		}{
			{"spd", spdMatrix(n)},
			{"se+nugget", seNuggetMatrix(n, 1.7, 1e-4)},
			{"se+tiny", seNuggetMatrix(n, 0.9, 1e-8)},
		} {
			name, a := m.name, m.a
			want, err := refCholeskyScalar(a)
			if err != nil {
				t.Fatalf("n=%d %s: oracle: %v", n, name, err)
			}
			got, err := NewCholesky(a)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			requireSameFactor(t, name+" NewCholesky", want, got)
			jit, err := reused.RefactorJittered(a, 1e-10, 12)
			if err != nil || jit != 0 {
				t.Fatalf("n=%d %s: reuse path: jitter %v, err %v", n, name, jit, err)
			}
			requireSameFactor(t, name+" RefactorJittered", want, reused)
		}
	}
}

// TestScalarCholeskyFailuresMatch checks the failure paths: an indefinite
// matrix is rejected by the oracle and the kernel alike (also when the
// reused factor holds a previous result), and the jitter ladder reaches the
// same rung with identical factors through the clone-and-retry oracle, the
// allocating entry point and the reuse path, on both sides of the
// crossover.
func TestScalarCholeskyFailuresMatch(t *testing.T) {
	for _, n := range []int{1, 6, 61, 127} {
		a := spdMatrix(n)
		a.Set(n-1, n-1, -1)
		if _, err := refCholeskyScalar(a); err != ErrNotPositiveDefinite {
			t.Fatalf("n=%d: oracle accepted an indefinite matrix: %v", n, err)
		}
		if _, err := NewCholesky(a); err != ErrNotPositiveDefinite {
			t.Fatalf("n=%d: NewCholesky: got %v, want ErrNotPositiveDefinite", n, err)
		}
		c := new(Cholesky)
		if _, err := c.RefactorJittered(spdMatrix(n), 1e-10, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RefactorJittered(a, 1e-10, 2); err != ErrNotPositiveDefinite {
			t.Fatalf("n=%d: reuse path: got %v, want ErrNotPositiveDefinite", n, err)
		}
		// A failed attempt leaves garbage in c.L; the next success must
		// not depend on it.
		want, _ := refCholeskyScalar(spdMatrix(n))
		if _, err := c.RefactorJittered(spdMatrix(n), 1e-10, 2); err != nil {
			t.Fatal(err)
		}
		requireSameFactor(t, "after failure", want, c)
	}

	blocked := func(a *Dense) (*Cholesky, error) { return factorWith(cholBlockedInto, a) }
	for _, n := range []int{50, 127, 130} {
		// Rank-1 Gram matrix: PSD but singular, so the ladder must climb.
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, float64(i+1)*float64(j+1)*1e-4)
			}
		}
		fact := refCholeskyScalar
		if n >= cholBlockedMin {
			fact = blocked
		}
		want, wantJit, err := refCholeskyJittered(a, 1e-10, 12, fact)
		if err != nil {
			t.Fatalf("n=%d: oracle ladder: %v", n, err)
		}
		if wantJit == 0 {
			t.Fatalf("n=%d: ladder did not climb", n)
		}
		got, jit, err := NewCholeskyJittered(a, 1e-10, 12)
		if err != nil || jit != wantJit {
			t.Fatalf("n=%d: NewCholeskyJittered: jitter %v (want %v), err %v", n, jit, wantJit, err)
		}
		requireSameFactor(t, "NewCholeskyJittered", want, got)
		c := &Cholesky{L: NewDense(n, n)}
		if _, err := c.RefactorJittered(spdMatrix(n), 1e-10, 12); err != nil {
			t.Fatal(err)
		}
		jit, err = c.RefactorJittered(a, 1e-10, 12)
		if err != nil || jit != wantJit {
			t.Fatalf("n=%d: RefactorJittered: jitter %v (want %v), err %v", n, jit, wantJit, err)
		}
		requireSameFactor(t, "RefactorJittered", want, c)
	}

	// An exhausted ladder fails on both paths.
	a := spdMatrix(20)
	a.Set(3, 3, -5)
	if _, _, err := refCholeskyJittered(a, 1e-10, 3, refCholeskyScalar); err != ErrNotPositiveDefinite {
		t.Fatalf("oracle ladder: got %v", err)
	}
	if _, _, err := NewCholeskyJittered(a, 1e-10, 3); err != ErrNotPositiveDefinite {
		t.Fatalf("NewCholeskyJittered: got %v, want ErrNotPositiveDefinite", err)
	}
}

// TestRefactorJitteredAllocationFree gates the reuse path: once the factor
// has its storage, refactoring allocates nothing — on the first rung and
// when the jitter ladder climbs.
func TestRefactorJitteredAllocationFree(t *testing.T) {
	n := 60
	a := seNuggetMatrix(n, 1, 1e-4)
	singular := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			singular.Set(i, j, float64(i+1)*float64(j+1)*1e-4)
		}
	}
	c := new(Cholesky)
	for name, m := range map[string]*Dense{"first rung": a, "ladder": singular} {
		if _, err := c.RefactorJittered(m, 1e-10, 12); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := c.RefactorJittered(m, 1e-10, 12); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocs per refactor, want 0", name, allocs)
		}
	}
}
