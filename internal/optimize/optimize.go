// Package optimize provides the derivative-free and line-search optimisers
// used by the maximum-likelihood estimators in this repository. The GARCH
// quasi-MLE (internal/garch) minimises its negative log-likelihood with
// Nelder-Mead over an unconstrained reparameterisation; golden-section search
// backs one-dimensional refinements.
package optimize

import (
	"errors"
	"math"
)

// Errors reported by the optimisers.
var (
	ErrBadArg         = errors.New("optimize: invalid argument")
	ErrDidNotConverge = errors.New("optimize: did not converge within MaxIter")
)

// Objective is a function to minimise.
type Objective func(x []float64) float64

// NelderMeadSettings configures the simplex search.
type NelderMeadSettings struct {
	// MaxIter bounds the number of simplex iterations (default 1000).
	MaxIter int
	// TolF stops when the simplex function-value spread falls below it
	// (default 1e-10).
	TolF float64
	// TolX stops when the simplex diameter falls below it (default 1e-10).
	TolX float64
	// Step is the initial simplex displacement per coordinate (default 0.1,
	// or 0.00025 for coordinates equal to zero, following Matlab's fminsearch
	// convention).
	Step float64
}

func (s *NelderMeadSettings) withDefaults() NelderMeadSettings {
	out := NelderMeadSettings{MaxIter: 1000, TolF: 1e-10, TolX: 1e-10, Step: 0.1}
	if s == nil {
		return out
	}
	if s.MaxIter > 0 {
		out.MaxIter = s.MaxIter
	}
	if s.TolF > 0 {
		out.TolF = s.TolF
	}
	if s.TolX > 0 {
		out.TolX = s.TolX
	}
	if s.Step > 0 {
		out.Step = s.Step
	}
	return out
}

// Result is the outcome of an optimisation.
type Result struct {
	X         []float64 // minimiser
	F         float64   // objective value at X
	Iters     int       // iterations performed
	Converged bool      // whether a tolerance (rather than MaxIter) stopped the search
}

// NelderMead minimises f starting from x0 using the downhill-simplex method
// with the standard reflection/expansion/contraction/shrink coefficients
// (1, 2, 0.5, 0.5). It never returns an error for a finite starting point;
// if MaxIter is exhausted the best vertex found so far is returned with
// Converged=false.
func NelderMead(f Objective, x0 []float64, settings *NelderMeadSettings) (*Result, error) {
	if len(x0) == 0 {
		return nil, ErrBadArg
	}
	for _, v := range x0 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrBadArg
		}
	}
	cfg := settings.withDefaults()
	n := len(x0)

	// Build the initial simplex.
	sx := newSimplex(n)
	for i, v := range sx.verts {
		copy(v, x0)
		if i > 0 {
			j := i - 1
			if v[j] != 0 {
				v[j] += cfg.Step * math.Abs(v[j])
			} else {
				v[j] = cfg.Step * 0.0025
			}
		}
		sx.fvals[i] = safeEval(f, v)
	}

	var iters int
	converged := false
	for iters = 0; iters < cfg.MaxIter; iters++ {
		sx.sort()
		if sx.converged(cfg.TolF, cfg.TolX) {
			converged = true
			break
		}
		sx.step(f)
	}

	sx.sort()
	best := sx.order[0]
	out := make([]float64, n)
	copy(out, sx.verts[best])
	return &Result{X: out, F: sx.fvals[best], Iters: iters, Converged: converged}, nil
}

// simplex is the Nelder-Mead working state: the n+1 vertices, their
// objective values, the vertex order and the scratch points. NelderMead
// allocates it once, so the iterations allocate nothing.
type simplex struct {
	verts                          [][]float64
	fvals                          []float64
	order                          []int
	centroid, trial, expand, contr []float64
}

func newSimplex(n int) *simplex {
	flat := make([]float64, (n+1)*n+4*n)
	sx := &simplex{
		verts: make([][]float64, n+1),
		fvals: make([]float64, n+1),
		order: make([]int, n+1),
	}
	for i := range sx.verts {
		sx.verts[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	scratch := flat[(n+1)*n:]
	sx.centroid = scratch[0:n:n]
	sx.trial = scratch[n : 2*n : 2*n]
	sx.expand = scratch[2*n : 3*n : 3*n]
	sx.contr = scratch[3*n : 4*n : 4*n]
	return sx
}

// sort orders the vertices by objective value, starting from the identity
// order. It is the insertion sort that sort.Slice runs on up to 12
// elements, so for up to 11 dimensions it orders tied vertices exactly as
// sort.Slice did.
//
//tspdb:kernel
func (sx *simplex) sort() {
	order, fvals := sx.order, sx.fvals
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && fvals[order[j]] < fvals[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// converged reports whether the sorted simplex has met both tolerances:
// function-value spread within tolF and diameter within tolX.
//
//tspdb:kernel
func (sx *simplex) converged(tolF, tolX float64) bool {
	n := len(sx.centroid)
	best, worst := sx.order[0], sx.order[n]
	if math.Abs(sx.fvals[worst]-sx.fvals[best]) > tolF {
		return false
	}
	diam := 0.0
	for _, idx := range sx.order[1:] {
		for j := 0; j < n; j++ {
			d := math.Abs(sx.verts[idx][j] - sx.verts[best][j])
			if d > diam {
				diam = d
			}
		}
	}
	return diam <= tolX
}

// step performs one iteration on the sorted simplex: reflection, then
// expansion, acceptance, contraction or shrink.
//
//tspdb:kernel
func (sx *simplex) step(f Objective) {
	n := len(sx.centroid)
	order, verts, fvals := sx.order, sx.verts, sx.fvals
	centroid, trial := sx.centroid, sx.trial
	best, worst := order[0], order[n]

	// Centroid of all but the worst vertex.
	for j := 0; j < n; j++ {
		centroid[j] = 0
	}
	for _, idx := range order[:n] {
		for j := 0; j < n; j++ {
			centroid[j] += verts[idx][j]
		}
	}
	for j := 0; j < n; j++ {
		centroid[j] /= float64(n)
	}

	// Reflection.
	for j := 0; j < n; j++ {
		trial[j] = centroid[j] + (centroid[j] - verts[worst][j])
	}
	fr := safeEval(f, trial)

	switch {
	case fr < fvals[order[0]]:
		// Expansion.
		exp := sx.expand
		for j := 0; j < n; j++ {
			exp[j] = centroid[j] + 2*(centroid[j]-verts[worst][j])
		}
		fe := safeEval(f, exp)
		if fe < fr {
			copy(verts[worst], exp)
			fvals[worst] = fe
		} else {
			copy(verts[worst], trial)
			fvals[worst] = fr
		}
	case fr < fvals[order[n-1]]:
		// Accept reflection.
		copy(verts[worst], trial)
		fvals[worst] = fr
	default:
		// Contraction (outside if the reflected point improved on the
		// worst vertex, inside otherwise).
		con := sx.contr
		if fr < fvals[worst] {
			for j := 0; j < n; j++ {
				con[j] = centroid[j] + 0.5*(trial[j]-centroid[j])
			}
		} else {
			for j := 0; j < n; j++ {
				con[j] = centroid[j] + 0.5*(verts[worst][j]-centroid[j])
			}
		}
		fc := safeEval(f, con)
		if fc < math.Min(fr, fvals[worst]) {
			copy(verts[worst], con)
			fvals[worst] = fc
		} else {
			// Shrink toward the best vertex.
			for _, idx := range order[1:] {
				for j := 0; j < n; j++ {
					verts[idx][j] = verts[best][j] + 0.5*(verts[idx][j]-verts[best][j])
				}
				fvals[idx] = safeEval(f, verts[idx])
			}
		}
	}
}

// safeEval evaluates f and maps NaN to +Inf so that invalid regions are
// simply avoided by the simplex rather than corrupting comparisons.
func safeEval(f Objective, x []float64) float64 {
	v := f(x)
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}

// GoldenSection minimises a univariate function on [a, b] to within tol using
// golden-section search. f is assumed unimodal on the interval; for
// non-unimodal f the result is a local minimum.
func GoldenSection(f func(float64) float64, a, b, tol float64) (xmin, fmin float64, err error) {
	if !(a < b) || tol <= 0 {
		return 0, 0, ErrBadArg
	}
	const phi = 0.6180339887498949 // (sqrt(5)-1)/2
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, f2 := f(x1), f(x2)
	for i := 0; i < 500 && b-a > tol; i++ {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2 = f(x2)
		}
	}
	if f1 < f2 {
		return x1, f1, nil
	}
	return x2, f2, nil
}

// Gradient estimates the gradient of f at x by central differences with a
// per-coordinate step h (default sqrt(eps)*(1+|x_i|) when h <= 0).
func Gradient(f Objective, x []float64, h float64) []float64 {
	g := make([]float64, len(x))
	work := make([]float64, len(x))
	copy(work, x)
	for i := range x {
		hi := h
		if hi <= 0 {
			hi = 1.4901161193847656e-08 * (1 + math.Abs(x[i]))
		}
		orig := work[i]
		work[i] = orig + hi
		fp := f(work)
		work[i] = orig - hi
		fm := f(work)
		work[i] = orig
		g[i] = (fp - fm) / (2 * hi)
	}
	return g
}

// Logistic maps an unconstrained real to (0, 1); used to keep GARCH
// persistence parameters inside their stationarity region.
func Logistic(x float64) float64 {
	if x >= 0 {
		e := math.Exp(-x)
		return 1 / (1 + e)
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Logit is the inverse of Logistic; p must lie in (0, 1).
func Logit(p float64) (float64, error) {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		return 0, ErrBadArg
	}
	return math.Log(p / (1 - p)), nil
}
