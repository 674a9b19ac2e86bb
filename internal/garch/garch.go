// Package garch implements the Generalized AutoRegressive Conditional
// Heteroskedasticity model of Section IV (Eqs. 4-6): given the innovation
// sequence a_i produced by an ARMA model or Kalman filter, GARCH(m,s) models
// the conditional variance
//
//	sigma^2_i = alpha0 + sum_j alpha_j a^2_{i-j} + sum_j beta_j sigma^2_{i-j}
//
// and forecasts the one-step-ahead volatility sigmâ^2_t (Eq. 6).
//
// Estimation is Gaussian quasi-maximum-likelihood: the constrained parameter
// vector (alpha0 > 0, alpha_j >= 0, beta_j >= 0, sum < 1) is mapped to an
// unconstrained space via exponentials, initialised by variance targeting and
// minimised with Nelder-Mead. The package also provides the time-varying
// volatility test of Section VII-D (Eqs. 15-16).
package garch

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/mathx"
	"repro/internal/optimize"
	"repro/internal/stat"
)

// Errors reported by the estimators.
var (
	ErrOrder      = errors.New("garch: invalid model order")
	ErrShortInput = errors.New("garch: innovation sequence too short")
	ErrDegenerate = errors.New("garch: innovations have (near-)zero variance")
	ErrBadArg     = errors.New("garch: invalid argument")
)

// Model is a fitted GARCH(m,s) model.
type Model struct {
	M, S   int       // model order: m ARCH lags, s GARCH lags
	Alpha0 float64   // constant term (> 0)
	Alpha  []float64 // ARCH coefficients alpha_1..alpha_m (>= 0)
	Beta   []float64 // GARCH coefficients beta_1..beta_s (>= 0)
	LogL   float64   // attained quasi-log-likelihood
}

// Order returns (m, s).
func (g *Model) Order() (m, s int) { return g.M, g.S }

// Persistence returns sum(alpha) + sum(beta); stationarity requires < 1.
func (g *Model) Persistence() float64 {
	p := 0.0
	for _, a := range g.Alpha {
		p += a
	}
	for _, b := range g.Beta {
		p += b
	}
	return p
}

// UnconditionalVariance returns alpha0 / (1 - persistence), the long-run
// variance of the process; +Inf if persistence >= 1.
func (g *Model) UnconditionalVariance() float64 {
	p := g.Persistence()
	if p >= 1 {
		return math.Inf(1)
	}
	return g.Alpha0 / (1 - p)
}

// String implements fmt.Stringer.
func (g *Model) String() string {
	return fmt.Sprintf("GARCH(%d,%d){alpha0=%.4g alpha=%v beta=%v}", g.M, g.S, g.Alpha0, g.Alpha, g.Beta)
}

// FitSettings tunes the quasi-MLE.
type FitSettings struct {
	// MaxIter bounds the Nelder-Mead iterations (default 400).
	MaxIter int
	// MaxPersistence caps sum(alpha)+sum(beta) strictly below 1
	// (default 0.9999).
	MaxPersistence float64
	// NoVarianceTargeting disables the variance-targeting initialisation
	// (alpha0 matched to the sample variance) and starts the optimiser from
	// a generic point instead. Exposed for the DESIGN.md ablation; keeping
	// targeting on converges in fewer iterations on short windows.
	NoVarianceTargeting bool
}

func (s *FitSettings) withDefaults() FitSettings {
	out := FitSettings{MaxIter: 400, MaxPersistence: 0.9999}
	if s == nil {
		return out
	}
	if s.MaxIter > 0 {
		out.MaxIter = s.MaxIter
	}
	if s.MaxPersistence > 0 && s.MaxPersistence < 1 {
		out.MaxPersistence = s.MaxPersistence
	}
	out.NoVarianceTargeting = s.NoVarianceTargeting
	return out
}

// Fit estimates a GARCH(m, s) model on the innovation sequence a by Gaussian
// quasi-maximum likelihood.
func Fit(a []float64, m, s int, settings *FitSettings) (*Model, error) {
	if m < 1 || s < 0 {
		return nil, fmt.Errorf("%w: m=%d s=%d", ErrOrder, m, s)
	}
	cfg := settings.withDefaults()
	n := len(a)
	k := maxInt(m, s)
	if n < k+5 || n < 2*(m+s+1) {
		return nil, fmt.Errorf("%w: n=%d for GARCH(%d,%d)", ErrShortInput, n, m, s)
	}
	v := stat.Variance(a)
	if v <= 1e-300 {
		return nil, ErrDegenerate
	}

	// Unconstrained parameterisation: theta = [log alpha0, log alpha_1..m,
	// log beta_1..s]. Stationarity is enforced with a barrier inside the
	// objective; non-negativity is automatic. The objective decodes into one
	// Model and filters into one variance buffer, both reused across every
	// evaluation, so the optimiser's iterations allocate nothing.
	model := &Model{M: m, S: s, Alpha: make([]float64, m), Beta: make([]float64, s)}
	sigma2 := make([]float64, n)
	nll := func(theta []float64) float64 {
		model.decode(theta)
		if model.Persistence() >= cfg.MaxPersistence {
			return math.Inf(1)
		}
		return -model.logLikelihood(a, v, sigma2)
	}

	// Variance targeting start: alpha ~ 0.10 total, beta ~ 0.80 total,
	// alpha0 matching the sample variance. The ablation start point uses a
	// unit alpha0 regardless of the data scale.
	theta0 := make([]float64, 1+m+s)
	alphaShare := 0.10 / float64(m)
	betaShare := 0.0
	if s > 0 {
		betaShare = 0.80 / float64(s)
	}
	alpha0 := v * (1 - 0.10 - 0.80*boolTo01(s > 0))
	if alpha0 <= 0 {
		alpha0 = v * 0.1
	}
	if cfg.NoVarianceTargeting {
		alpha0 = 1
	}
	theta0[0] = math.Log(alpha0)
	for j := 0; j < m; j++ {
		theta0[1+j] = math.Log(alphaShare)
	}
	for j := 0; j < s; j++ {
		theta0[1+m+j] = math.Log(betaShare)
	}

	res, err := optimize.NelderMead(nll, theta0, &optimize.NelderMeadSettings{
		MaxIter: cfg.MaxIter,
		TolF:    1e-9,
		TolX:    1e-7,
	})
	if err != nil {
		return nil, err
	}
	model.decode(res.X)
	model.LogL = -res.F
	if math.IsInf(res.F, 1) {
		// The optimiser never found a stationary point: fall back to a mild
		// default that is always valid. (Extremely rare; requires an
		// adversarial window.)
		model.Alpha0 = v * 0.2
		fill(model.Alpha, 0.05)
		fill(model.Beta, 0.7/float64(maxInt(s, 1)))
		model.LogL = model.logLikelihood(a, v, sigma2)
	}
	return model, nil
}

// decode sets the model's coefficients from the unconstrained parameter
// vector theta = [log alpha0, log alpha_1..m, log beta_1..s].
//
//tspdb:kernel
func (g *Model) decode(theta []float64) {
	g.Alpha0 = math.Exp(theta[0])
	for j := range g.Alpha {
		g.Alpha[j] = math.Exp(theta[1+j])
	}
	for j := range g.Beta {
		g.Beta[j] = math.Exp(theta[1+g.M+j])
	}
}

func fill(xs []float64, v float64) {
	for i := range xs {
		xs[i] = v
	}
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// log2Pi is log(2*pi), the constant term of every Gaussian log-density
// (the same float64 the per-term math.Log call produced).
var log2Pi = math.Log(2 * math.Pi)

// logLikelihood computes the Gaussian conditional log-likelihood over a,
// seeding the variance recursion with seed (typically the sample variance).
// sigma2 (length len(a)) receives the conditional variance path.
//
//tspdb:kernel
func (g *Model) logLikelihood(a []float64, seed float64, sigma2 []float64) float64 {
	g.filterInto(a, seed, sigma2)
	k := maxInt(g.M, g.S)
	ll := 0.0
	for i := k; i < len(a); i++ {
		s2 := sigma2[i]
		if s2 <= 0 || math.IsNaN(s2) {
			return math.Inf(-1)
		}
		ll += -0.5 * (log2Pi + math.Log(s2) + a[i]*a[i]/s2)
	}
	return ll
}

// filterInto runs the variance recursion (Eq. 5) over the full innovation
// sequence, writing sigma^2_i for every index into sigma2 (length len(a)).
// Warm-up entries (i < max(m,s)) are set to seed.
//
//tspdb:kernel
func (g *Model) filterInto(a []float64, seed float64, sigma2 []float64) {
	n := len(a)
	k := maxInt(g.M, g.S)
	for i := 0; i < k && i < n; i++ {
		sigma2[i] = seed
	}
	for i := k; i < n; i++ {
		s2 := g.Alpha0
		for j := 1; j <= g.M; j++ {
			s2 += g.Alpha[j-1] * a[i-j] * a[i-j]
		}
		for j := 1; j <= g.S; j++ {
			s2 += g.Beta[j-1] * sigma2[i-j]
		}
		sigma2[i] = s2
	}
}

// filter is filterInto with a fresh result slice.
func (g *Model) filter(a []float64, seed float64) []float64 {
	sigma2 := make([]float64, len(a))
	g.filterInto(a, seed, sigma2)
	return sigma2
}

// ConditionalVariances returns the in-sample conditional variance path
// sigma^2_i implied by the model on a, seeded with the sample variance of a.
func (g *Model) ConditionalVariances(a []float64) []float64 {
	return g.filter(a, stat.Variance(a))
}

// Forecast returns the one-step-ahead conditional variance sigmâ^2_t
// (Eq. 6) given the innovation sequence a observed through time t-1.
func (g *Model) Forecast(a []float64) (float64, error) {
	k := maxInt(g.M, g.S)
	if len(a) < k+1 {
		return 0, fmt.Errorf("%w: need at least %d innovations", ErrShortInput, k+1)
	}
	sigma2 := g.filter(a, stat.Variance(a))
	n := len(a)
	s2 := g.Alpha0
	for j := 1; j <= g.M; j++ {
		s2 += g.Alpha[j-1] * a[n-j] * a[n-j]
	}
	for j := 1; j <= g.S; j++ {
		s2 += g.Beta[j-1] * sigma2[n-j]
	}
	if s2 <= 0 || math.IsNaN(s2) {
		return 0, ErrDegenerate
	}
	return s2, nil
}

// FitForecast estimates GARCH(m,s) on a and returns the one-step volatility
// forecast together with the fitted model.
func FitForecast(a []float64, m, s int, settings *FitSettings) (sigma2 float64, model *Model, err error) {
	model, err = Fit(a, m, s, settings)
	if err != nil {
		return 0, nil, err
	}
	sigma2, err = model.Forecast(a)
	if err != nil {
		return 0, nil, err
	}
	return sigma2, model, nil
}

// ARCHTestResult reports the time-varying volatility test of Section VII-D.
type ARCHTestResult struct {
	M         int     // lags tested
	Statistic float64 // Phi(m) of Eq. (16)
	Critical  float64 // chi^2_m(alpha) upper critical value
	PValue    float64 // P(chi^2_m > Phi(m))
	Reject    bool    // whether the i.i.d. null is rejected at level alpha
}

// ARCHTest performs the null-hypothesis test of Eqs. (15)-(16): it regresses
// a^2_i on its m lags and compares the statistic
//
//	Phi(m) = ((gamma0 - gamma1)/m) / (gamma1/(K - 2m - 1))
//
// against the upper 100(1-alpha)% percentile of chi^2_m, where gamma0 and
// gamma1 are the total and residual sums of squares of the regression and K
// is the number of regression observations. Rejecting the null establishes
// that the series exhibits time-varying volatility.
func ARCHTest(a []float64, m int, alpha float64) (*ARCHTestResult, error) {
	if m < 1 {
		return nil, fmt.Errorf("%w: m=%d", ErrOrder, m)
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("%w: alpha=%v", ErrBadArg, alpha)
	}
	n := len(a)
	rows := n - m
	if rows < m+2 || n < 2*m+2 {
		return nil, fmt.Errorf("%w: n=%d m=%d", ErrShortInput, n, m)
	}

	// Regression a^2_i = xi0 + xi1 a^2_{i-1} + ... + xim a^2_{i-m} + e_i.
	sq := make([]float64, n)
	for i, v := range a {
		sq[i] = v * v
	}
	design := newLagDesign(sq, m)
	y := sq[m:]
	res, err := stat.OLS(design, y)
	if err != nil {
		return nil, err
	}

	gamma0 := res.TSS // total SS of a^2 around its mean
	gamma1 := res.RSS // residual SS
	if gamma1 <= 0 {
		// A perfect fit means maximal evidence against the null.
		crit, cerr := mathx.ChiSquaredQuantile(1-alpha, float64(m))
		if cerr != nil {
			return nil, cerr
		}
		return &ARCHTestResult{M: m, Statistic: math.Inf(1), Critical: crit, PValue: 0, Reject: true}, nil
	}
	k := float64(rows)
	phi := ((gamma0 - gamma1) / float64(m)) / (gamma1 / (k - 2*float64(m) - 1))

	crit, err := mathx.ChiSquaredQuantile(1-alpha, float64(m))
	if err != nil {
		return nil, err
	}
	cdf, err := mathx.ChiSquaredCDF(phi, float64(m))
	if err != nil {
		return nil, err
	}
	return &ARCHTestResult{
		M:         m,
		Statistic: phi,
		Critical:  crit,
		PValue:    1 - cdf,
		Reject:    phi > crit,
	}, nil
}

// newLagDesign builds the [1, x_{t-1}, ..., x_{t-m}] regression design over x.
func newLagDesign(x []float64, m int) *mat.Dense {
	rows := len(x) - m
	d := mat.NewDense(rows, m+1, nil)
	for t := m; t < len(x); t++ {
		r := t - m
		d.Set(r, 0, 1)
		for j := 1; j <= m; j++ {
			d.Set(r, j, x[t-j])
		}
	}
	return d
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
