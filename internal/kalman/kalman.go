// Package kalman implements the Kalman filter of Section IV (Eqs. 7-8): a
// scalar local-level state-space model
//
//	state:       x_i = c1 * x_{i-1} + e_{i-1},   e ~ N(0, sigma2E)
//	observation: r_i = c2 * x_i     + eta_i,     eta ~ N(0, sigma2Eta)
//
// with the noise variances estimated by Expectation-Maximisation over the
// sliding window. The paper points out (Section VII-A) that the iterative EM
// estimation converges slowly for large windows, which is exactly why the
// Kalman-GARCH metric is slower than ARMA-GARCH; this implementation keeps
// that characteristic.
package kalman

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stat"
)

// Errors reported by the package.
var (
	ErrShortInput = errors.New("kalman: observation sequence too short")
	ErrBadArg     = errors.New("kalman: invalid argument")
)

// Model is a scalar local-level state-space model.
type Model struct {
	C1        float64 // state transition constant (Eq. 7)
	C2        float64 // observation constant (Eq. 8)
	Sigma2E   float64 // state noise variance sigma^2_e
	Sigma2Eta float64 // observation noise variance sigma^2_eta
	X0        float64 // initial state mean (r̂_1 "given a priori")
	P0        float64 // initial state variance
}

// String implements fmt.Stringer.
func (m *Model) String() string {
	return fmt.Sprintf("Kalman{c1=%g c2=%g sigma2E=%.4g sigma2Eta=%.4g}",
		m.C1, m.C2, m.Sigma2E, m.Sigma2Eta)
}

// FilterResult holds the forward-pass outputs for each time step.
type FilterResult struct {
	PredState []float64 // x_{i|i-1}
	PredVar   []float64 // P_{i|i-1}
	State     []float64 // x_{i|i} (filtered)
	Var       []float64 // P_{i|i}
	Gain      []float64 // Kalman gain K_i
	LogL      float64   // innovation-form log-likelihood
}

// log2Pi is log(2*pi), the constant term of every Gaussian log-density
// (the same float64 the per-step math.Log call produced).
var log2Pi = math.Log(2 * math.Pi)

// newFilterResult allocates a FilterResult for n observations.
func newFilterResult(n int) *FilterResult {
	buf := make([]float64, 5*n)
	return &FilterResult{
		PredState: buf[0*n : 1*n : 1*n],
		PredVar:   buf[1*n : 2*n : 2*n],
		State:     buf[2*n : 3*n : 3*n],
		Var:       buf[3*n : 4*n : 4*n],
		Gain:      buf[4*n : 5*n : 5*n],
	}
}

// Filter runs the forward Kalman recursion over observations r.
func (m *Model) Filter(r []float64) (*FilterResult, error) {
	if len(r) == 0 {
		return nil, ErrShortInput
	}
	if err := m.check(); err != nil {
		return nil, err
	}
	res := newFilterResult(len(r))
	m.filterInto(r, res)
	return res, nil
}

// check validates the noise variances the recursions divide by.
func (m *Model) check() error {
	if m.Sigma2E < 0 || m.Sigma2Eta <= 0 || m.P0 < 0 {
		return ErrBadArg
	}
	return nil
}

// filterInto runs the forward recursion over r (non-empty, with a model
// that passed check), overwriting every field of res, whose slices have
// length len(r).
//
//tspdb:kernel
func (m *Model) filterInto(r []float64, res *FilterResult) {
	res.LogL = 0
	xPrev, pPrev := m.X0, m.P0
	for i := range r {
		// Predict.
		xp := m.C1 * xPrev
		pp := m.C1*m.C1*pPrev + m.Sigma2E
		if i == 0 {
			// The first prediction uses the prior directly.
			xp, pp = m.X0, m.P0+m.Sigma2E
		}
		// Innovation.
		f := m.C2*m.C2*pp + m.Sigma2Eta
		v := r[i] - m.C2*xp
		k := pp * m.C2 / f
		// Update.
		x := xp + k*v
		p := (1 - k*m.C2) * pp

		res.PredState[i] = xp
		res.PredVar[i] = pp
		res.State[i] = x
		res.Var[i] = p
		res.Gain[i] = k
		res.LogL += -0.5 * (log2Pi + math.Log(f) + v*v/f)

		xPrev, pPrev = x, p
	}
}

// SmoothResult holds the Rauch-Tung-Striebel smoother outputs.
type SmoothResult struct {
	State  []float64 // x_{i|n}
	Var    []float64 // P_{i|n}
	LagCov []float64 // P_{i,i-1|n} (lag-one covariance, needed by EM); index 0 unused
}

// newSmoothResult allocates a SmoothResult for n observations.
func newSmoothResult(n int) *SmoothResult {
	buf := make([]float64, 3*n)
	return &SmoothResult{
		State:  buf[0*n : 1*n : 1*n],
		Var:    buf[1*n : 2*n : 2*n],
		LagCov: buf[2*n : 3*n : 3*n],
	}
}

// Smooth runs the RTS backward pass (plus lag-one covariance smoother) over a
// forward filter result.
func (m *Model) Smooth(r []float64, f *FilterResult) (*SmoothResult, error) {
	n := len(r)
	if n == 0 || len(f.State) != n {
		return nil, ErrBadArg
	}
	s := newSmoothResult(n)
	if !m.smoothInto(f, s, make([]float64, n)) {
		return nil, ErrBadArg
	}
	return s, nil
}

// smoothInto runs the backward pass over the filter result f (length n >=
// 1) into s, using js (length n) for the smoother gains. It reports false
// when a predicted variance is not positive, leaving s partly written.
// Entry 0 of s.LagCov is left as it was; nothing reads it.
//
//tspdb:kernel
func (m *Model) smoothInto(f *FilterResult, s *SmoothResult, js []float64) bool {
	n := len(f.State)
	s.State[n-1] = f.State[n-1]
	s.Var[n-1] = f.Var[n-1]

	// Smoother gains J_i = P_{i|i} c1 / P_{i+1|i}.
	for i := n - 2; i >= 0; i-- {
		if f.PredVar[i+1] <= 0 {
			return false
		}
		j := f.Var[i] * m.C1 / f.PredVar[i+1]
		js[i] = j
		s.State[i] = f.State[i] + j*(s.State[i+1]-m.C1*f.State[i])
		s.Var[i] = f.Var[i] + j*j*(s.Var[i+1]-f.PredVar[i+1])
	}

	// Lag-one covariance smoother (Shumway & Stoffer, Property 6.3).
	if n >= 2 {
		s.LagCov[n-1] = (1 - f.Gain[n-1]*m.C2) * m.C1 * f.Var[n-2]
		for i := n - 2; i >= 1; i-- {
			s.LagCov[i] = f.Var[i]*js[i-1] + js[i]*(s.LagCov[i+1]-m.C1*f.Var[i])*js[i-1]
		}
	}
	return true
}

// EMSettings tunes the EM estimation loop.
type EMSettings struct {
	// MaxIter bounds EM iterations (default 50).
	MaxIter int
	// Tol stops when the relative log-likelihood improvement falls below it
	// (default 1e-6).
	Tol float64
}

func (s *EMSettings) withDefaults() EMSettings {
	out := EMSettings{MaxIter: 50, Tol: 1e-6}
	if s == nil {
		return out
	}
	if s.MaxIter > 0 {
		out.MaxIter = s.MaxIter
	}
	if s.Tol > 0 {
		out.Tol = s.Tol
	}
	return out
}

// FitEM estimates sigma2E and sigma2Eta on the window r by
// Expectation-Maximisation with c1 = c2 = 1 (the paper treats the constants
// as given; the local-level choice c1 = c2 = 1 is the standard one for
// smoothing sensor streams). It returns the fitted model and the number of
// EM iterations performed.
func FitEM(r []float64, settings *EMSettings) (*Model, int, error) {
	n := len(r)
	if n < 4 {
		return nil, 0, fmt.Errorf("%w: n=%d", ErrShortInput, n)
	}
	cfg := settings.withDefaults()

	v := stat.Variance(r)
	if v <= 1e-300 {
		// Degenerate constant window: any tiny noise model reproduces it.
		v = 1e-12
	}
	m := &Model{
		C1: 1, C2: 1,
		Sigma2E:   v / 2,
		Sigma2Eta: v / 2,
		X0:        r[0],
		P0:        v,
	}

	// One filter result, one smoother result and one gain buffer serve
	// every EM iteration.
	f, s, js := newFilterResult(n), newSmoothResult(n), make([]float64, n)
	prevLL := math.Inf(-1)
	iters := 0
	for ; iters < cfg.MaxIter; iters++ {
		if err := m.check(); err != nil {
			return nil, iters, err
		}
		m.filterInto(r, f)
		if !m.smoothInto(f, s, js) {
			return nil, iters, ErrBadArg
		}

		// E-step sufficient statistics.
		// S11 = sum_{i=1}^{n-1} E[x_i^2], S10 = sum E[x_i x_{i-1}],
		// S00 = sum_{i=0}^{n-2} E[x_i^2].
		var s11, s10, s00 float64
		for i := 1; i < n; i++ {
			s11 += s.State[i]*s.State[i] + s.Var[i]
			s10 += s.State[i]*s.State[i-1] + s.LagCov[i]
			s00 += s.State[i-1]*s.State[i-1] + s.Var[i-1]
		}

		// M-step with c1 = c2 = 1.
		sigma2E := (s11 - 2*s10 + s00) / float64(n-1)
		var sigma2Eta float64
		for i := 0; i < n; i++ {
			d := r[i] - s.State[i]
			sigma2Eta += d*d + s.Var[i]
		}
		sigma2Eta /= float64(n)

		// Guard against collapse; a zero variance freezes the filter.
		if sigma2E < 1e-12*v {
			sigma2E = 1e-12 * v
		}
		if sigma2Eta < 1e-12*v {
			sigma2Eta = 1e-12 * v
		}
		m.Sigma2E, m.Sigma2Eta = sigma2E, sigma2Eta
		m.X0, m.P0 = s.State[0], s.Var[0]

		if f.LogL < prevLL+cfg.Tol*(1+math.Abs(prevLL)) && iters > 0 {
			iters++
			break
		}
		prevLL = f.LogL
	}
	return m, iters, nil
}

// Forecast returns the one-step-ahead prediction r̂_t = c2 c1 x_{t-1|t-1}
// after filtering the window r, together with the prediction variance of the
// observation.
func (m *Model) Forecast(r []float64) (rhat, predVar float64, err error) {
	f, err := m.Filter(r)
	if err != nil {
		return 0, 0, err
	}
	rhat, predVar = m.forecastFrom(f)
	return rhat, predVar, nil
}

// forecastFrom reads the one-step forecast and its variance off a filter
// pass over the window.
func (m *Model) forecastFrom(f *FilterResult) (rhat, predVar float64) {
	n := len(f.State)
	xp := m.C1 * f.State[n-1]
	pp := m.C1*m.C1*f.Var[n-1] + m.Sigma2E
	return m.C2 * xp, m.C2*m.C2*pp + m.Sigma2Eta
}

// FitForecast runs EM estimation on the window and returns the one-step
// forecast; this is the Kalman-GARCH metric's mean-inference path.
func FitForecast(r []float64, settings *EMSettings) (rhat float64, model *Model, err error) {
	model, _, err = FitEM(r, settings)
	if err != nil {
		return 0, nil, err
	}
	rhat, _, err = model.Forecast(r)
	if err != nil {
		return 0, nil, err
	}
	return rhat, model, nil
}

// ForecastResiduals returns, from one filter pass over r, Forecast's
// one-step-ahead r̂_t and the innovations a_i = r_i - r̂_i, where r̂_i is
// the prediction c2 * x_{i|i-1}. The Kalman-GARCH metric forecasts with the
// first and feeds the second to its GARCH stage.
func (m *Model) ForecastResiduals(r []float64) (rhat float64, resid []float64, err error) {
	f, err := m.Filter(r)
	if err != nil {
		return 0, nil, err
	}
	resid = make([]float64, len(r))
	for i := range r {
		resid[i] = r[i] - m.C2*f.PredState[i]
	}
	rhat, _ = m.forecastFrom(f)
	return rhat, resid, nil
}
