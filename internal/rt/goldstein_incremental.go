package rt

import (
	"math"
)

// halfLog2Pi is the log-normal density's normalizing constant, 0.5·log 2π.
var halfLog2Pi = 0.5 * math.Log(2*math.Pi)

// goldsteinState is the full intermediate state of one posterior evaluation:
// the interpolated daily log-R series, its exponentials, the renewal
// incidence, and the per-observation log shedding loads and log-likelihood
// terms.
type goldsteinState struct {
	logR, expLogR, inc []float64
	logLoad, term      []float64
}

func newGoldsteinState(days, nObs int) *goldsteinState {
	return &goldsteinState{
		logR:    make([]float64, days),
		expLogR: make([]float64, days),
		inc:     make([]float64, days),
		logLoad: make([]float64, nObs),
		term:    make([]float64, nObs),
	}
}

// goldsteinTarget is the mcmc.ComponentTarget form of the Goldstein
// posterior. The component-at-a-time sampler changes one coordinate per
// proposal, so most of the evaluation is unchanged from the committed point:
//
//   - a log-R knot move only perturbs the interpolated series between its
//     neighboring knots, and the renewal recursion only diverges from that
//     day forward;
//   - a noise-scale (sigma) move leaves the entire latent epidemic and the
//     shedding loads untouched — only the observation densities rerun;
//   - a seed move leaves log-R (and its exponentials, the expensive part of
//     the renewal loop) untouched.
//
// Everything that is recomputed uses the same operations on the same inputs,
// in the same order, as goldsteinModel.logPosterior; everything else is
// copied bit-for-bit from the committed point. The chain this target
// produces is therefore bit-identical to running the plain posterior — which
// TestGoldsteinIncrementalMatchesFull enforces. The log-normal observation
// density is stats.LogNormalPDFLog expanded in place, with the logs of its
// fixed inputs (each concentration, 2π) taken once instead of per term.
//
// Both convolutions (renewal and shedding) run through dotBackward over a
// window of the incidence and a reversed kernel: walking the two slices from
// the end visits lags in ascending order, the order logPosterior sums them
// in, while letting the compiler drop the per-term bounds checks.
type goldsteinTarget struct {
	m         *goldsteinModel
	logConc   []float64 // log of each observed concentration
	genRev    []float64 // genRev[k] = genPMF[maxLag-k], lags maxLag..1
	shedRev   []float64 // shedRev[k] = shedPMF[len-1-k], lags len-1..0
	cur, prop *goldsteinState
	committed bool
	propOK    bool
}

func newGoldsteinTarget(m *goldsteinModel) *goldsteinTarget {
	logConc := make([]float64, len(m.obs))
	for i, o := range m.obs {
		logConc[i] = math.Log(o.Concentration)
	}
	return &goldsteinTarget{
		m:       m,
		logConc: logConc,
		genRev:  reversed(m.genPMF[1:]),
		shedRev: reversed(m.shedPMF),
		cur:     newGoldsteinState(m.days, len(m.obs)),
		prop:    newGoldsteinState(m.days, len(m.obs)),
	}
}

func reversed(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}

// dotBackward returns Σ x[j]·y[j], accumulated from the last index down to
// the first. y must be at least as long as x.
func dotBackward(x, y []float64) float64 {
	y = y[:len(x)]
	s := 0.0
	for j := len(x) - 1; j >= 0; j-- {
		s += x[j] * y[j]
	}
	return s
}

func (t *goldsteinTarget) LogDensityAt(theta []float64, changed int) float64 {
	m := t.m
	nk := len(m.knots)
	t.propOK = false
	knotVals := theta[:nk]
	logSigma := theta[nk]
	logSeed := theta[nk+1]
	if logSigma < -5 || logSigma > 3 || logSeed < -25 || logSeed > 25 {
		return math.Inf(-1)
	}
	sigma := math.Exp(logSigma)

	// Priors — always recomputed, in logPosterior's exact order.
	lp := 0.0
	lp += -0.5 * (knotVals[0] / 0.5) * (knotVals[0] / 0.5)
	for i := 1; i < nk; i++ {
		d := (knotVals[i] - knotVals[i-1]) / m.rwSigma
		lp += -0.5 * d * d
	}
	lp += -0.5 * ((logSigma - math.Log(0.5)) / 1.0) * ((logSigma - math.Log(0.5)) / 1.0)
	lp += -0.5 * (logSeed / 10.0) * (logSeed / 10.0)

	// Influence range of the changed coordinate.
	logRFrom, logRTo := 0, m.days // segment of logR to rebuild
	incFrom := 0                  // first day of the renewal suffix to rebuild
	sigmaMoved := true
	if t.committed && changed >= 0 {
		sigmaMoved = changed == nk
		switch {
		case changed < nk: // a log-R knot
			if changed > 0 {
				logRFrom = m.knots[changed-1] + 1
			}
			if changed+1 < nk {
				logRTo = m.knots[changed+1] + 1
				if logRTo > m.days {
					logRTo = m.days
				}
			}
			incFrom = logRFrom
			if incFrom < m.seedDays {
				incFrom = m.seedDays
			}
		case changed == nk: // observation noise: latent epidemic untouched
			logRFrom, logRTo, incFrom = m.days, m.days, m.days
		default: // seed: logR untouched, renewal rebuilt from day 0
			logRFrom, logRTo = m.days, m.days
		}
	}
	cur, p := t.cur, t.prop

	// Interpolated logR and its exponentials.
	copy(p.logR[:logRFrom], cur.logR[:logRFrom])
	copy(p.logR[logRTo:], cur.logR[logRTo:])
	copy(p.expLogR[:logRFrom], cur.expLogR[:logRFrom])
	copy(p.expLogR[logRTo:], cur.expLogR[logRTo:])
	if logRFrom < logRTo {
		m.dailyLogRRange(knotVals, p.logR, logRFrom, logRTo)
		for d := logRFrom; d < logRTo; d++ {
			p.expLogR[d] = math.Exp(p.logR[d])
		}
	}

	// Renewal recursion over the affected suffix.
	seed := math.Exp(logSeed)
	copy(p.inc[:incFrom], cur.inc[:incFrom])
	for d := incFrom; d < m.days; d++ {
		if d < m.seedDays {
			p.inc[d] = seed
			continue
		}
		n := min(len(t.genRev), d) // lags 1..n
		lambda := dotBackward(p.inc[d-n:d], t.genRev[len(t.genRev)-n:])
		p.inc[d] = p.expLogR[d] * lambda
	}

	// Observation model: loads (and their logs) rerun only where the
	// incidence moved, the log-normal densities additionally when sigma
	// moved. A committed load is positive, so only a rerun one is checked.
	// Concentrations are positive (EstimateGoldstein rejects any other) and
	// so is sigma, so LogNormalPDFLog's support check never fires and is
	// left out.
	logSig := math.Log(sigma)
	for oi := range m.obs {
		o := &m.obs[oi]
		if o.Day >= incFrom {
			n := min(len(t.shedRev), o.Day+1) // lags 0..n-1
			load := dotBackward(p.inc[o.Day+1-n:o.Day+1], t.shedRev[len(t.shedRev)-n:])
			if load <= 0 {
				return math.Inf(-1)
			}
			p.logLoad[oi] = math.Log(load)
		} else {
			p.logLoad[oi] = cur.logLoad[oi]
		}
		if o.Day >= incFrom || sigmaMoved {
			lx := t.logConc[oi]
			z := (lx - p.logLoad[oi]) / sigma
			p.term[oi] = -lx - logSig - halfLog2Pi - 0.5*z*z
		} else {
			p.term[oi] = cur.term[oi]
		}
		lp += p.term[oi]
	}
	if math.IsNaN(lp) {
		return math.Inf(-1)
	}
	t.propOK = true
	return lp
}

func (t *goldsteinTarget) Commit() {
	if !t.propOK {
		panic("rt: Commit of an invalid Goldstein proposal")
	}
	t.cur, t.prop = t.prop, t.cur
	t.committed = true
	t.propOK = false
}
