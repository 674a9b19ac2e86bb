package garch

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// simulateGARCH draws n innovations from a GARCH(1,1) process.
func simulateGARCH(alpha0, alpha1, beta1 float64, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	burn := 500
	a := make([]float64, n+burn)
	s2 := alpha0 / (1 - alpha1 - beta1)
	for i := 0; i < n+burn; i++ {
		if i > 0 {
			s2 = alpha0 + alpha1*a[i-1]*a[i-1] + beta1*s2
		}
		a[i] = math.Sqrt(s2) * rng.NormFloat64()
	}
	return a[burn:]
}

// iidNormal draws i.i.d. N(0, sigma^2) innovations.
func iidNormal(sigma float64, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, n)
	for i := range a {
		a[i] = sigma * rng.NormFloat64()
	}
	return a
}

func TestFitRecoversPersistence(t *testing.T) {
	a := simulateGARCH(0.1, 0.15, 0.80, 4000, 1)
	g, err := Fit(a, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// QMLE on 4000 points: persistence should be within ~0.1 of 0.95 and the
	// individual parameters in the right region.
	if math.Abs(g.Persistence()-0.95) > 0.10 {
		t.Errorf("persistence = %v, want ~0.95 (%v)", g.Persistence(), g)
	}
	if g.Alpha[0] < 0.02 || g.Alpha[0] > 0.4 {
		t.Errorf("alpha1 = %v, want ~0.15", g.Alpha[0])
	}
	if g.Beta[0] < 0.5 || g.Beta[0] > 0.98 {
		t.Errorf("beta1 = %v, want ~0.80", g.Beta[0])
	}
}

func TestFitConstraintsAlwaysSatisfied(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		a := simulateGARCH(0.05, 0.1, 0.85, 300, seed)
		g, err := Fit(a, 1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if g.Alpha0 <= 0 {
			t.Errorf("alpha0 = %v", g.Alpha0)
		}
		for _, v := range g.Alpha {
			if v < 0 {
				t.Errorf("negative alpha %v", v)
			}
		}
		for _, v := range g.Beta {
			if v < 0 {
				t.Errorf("negative beta %v", v)
			}
		}
		if g.Persistence() >= 1 {
			t.Errorf("non-stationary fit: persistence %v", g.Persistence())
		}
	}
}

func TestFitOrderAndInputValidation(t *testing.T) {
	a := iidNormal(1, 100, 2)
	if _, err := Fit(a, 0, 1, nil); !errors.Is(err, ErrOrder) {
		t.Error("m=0 accepted")
	}
	if _, err := Fit(a, 1, -1, nil); !errors.Is(err, ErrOrder) {
		t.Error("s<0 accepted")
	}
	if _, err := Fit(a[:4], 1, 1, nil); !errors.Is(err, ErrShortInput) {
		t.Error("short input accepted")
	}
	zero := make([]float64, 100)
	if _, err := Fit(zero, 1, 1, nil); !errors.Is(err, ErrDegenerate) {
		t.Error("zero-variance input accepted")
	}
}

func TestFitARCHOnly(t *testing.T) {
	// GARCH(1,0) = ARCH(1): should fit without beta terms.
	a := simulateGARCH(0.5, 0.3, 0, 3000, 3)
	g, err := Fit(a, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Beta) != 0 {
		t.Error("ARCH fit has beta terms")
	}
	if g.Alpha[0] < 0.1 || g.Alpha[0] > 0.6 {
		t.Errorf("alpha1 = %v, want ~0.3", g.Alpha[0])
	}
}

func TestUnconditionalVariance(t *testing.T) {
	g := &Model{M: 1, S: 1, Alpha0: 0.2, Alpha: []float64{0.1}, Beta: []float64{0.7}}
	want := 0.2 / (1 - 0.8)
	if math.Abs(g.UnconditionalVariance()-want) > 1e-12 {
		t.Errorf("unconditional variance = %v", g.UnconditionalVariance())
	}
	bad := &Model{M: 1, S: 1, Alpha0: 0.2, Alpha: []float64{0.5}, Beta: []float64{0.6}}
	if !math.IsInf(bad.UnconditionalVariance(), 1) {
		t.Error("non-stationary unconditional variance should be +Inf")
	}
}

func TestForecastRespondsToShocks(t *testing.T) {
	g := &Model{M: 1, S: 1, Alpha0: 0.1, Alpha: []float64{0.2}, Beta: []float64{0.7}}
	calm := []float64{0.1, -0.1, 0.05, -0.02, 0.1, -0.05, 0.08, 0.02}
	shocked := append(append([]float64{}, calm...), 5.0) // big last shock
	f1, err := g.Forecast(calm)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := g.Forecast(shocked)
	if err != nil {
		t.Fatal(err)
	}
	if f2 <= f1 {
		t.Errorf("shock did not raise forecast: %v -> %v", f1, f2)
	}
	// Forecast after a shock must include at least alpha1 * shock^2.
	if f2 < 0.2*25 {
		t.Errorf("forecast %v smaller than ARCH term", f2)
	}
}

func TestForecastShortInput(t *testing.T) {
	g := &Model{M: 2, S: 1, Alpha0: 0.1, Alpha: []float64{0.1, 0.1}, Beta: []float64{0.5}}
	if _, err := g.Forecast([]float64{1}); !errors.Is(err, ErrShortInput) {
		t.Error("short forecast input accepted")
	}
}

func TestConditionalVariancesPositive(t *testing.T) {
	a := simulateGARCH(0.1, 0.1, 0.8, 500, 4)
	g, err := Fit(a, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s2 := range g.ConditionalVariances(a) {
		if s2 <= 0 {
			t.Fatalf("sigma2[%d] = %v", i, s2)
		}
	}
}

func TestFitForecastConsistent(t *testing.T) {
	a := simulateGARCH(0.1, 0.1, 0.8, 600, 5)
	s2, g, err := FitForecast(a, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := g.Forecast(a)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != direct {
		t.Errorf("FitForecast %v != Forecast %v", s2, direct)
	}
}

func TestLikelihoodImprovesOverStart(t *testing.T) {
	a := simulateGARCH(0.2, 0.2, 0.7, 1000, 6)
	g, err := Fit(a, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately bad model must have lower likelihood.
	bad := &Model{M: 1, S: 1, Alpha0: 10, Alpha: []float64{0.01}, Beta: []float64{0.01}}
	if ll := bad.logLikelihood(a, 1, make([]float64, len(a))); ll >= g.LogL {
		t.Errorf("fit LL %v not better than bad LL %v", g.LogL, ll)
	}
}

func TestARCHTestDetectsGARCHEffects(t *testing.T) {
	a := simulateGARCH(0.1, 0.3, 0.6, 2000, 7)
	res, err := ARCHTest(a, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject {
		t.Errorf("ARCH effects not detected: stat=%v crit=%v", res.Statistic, res.Critical)
	}
	if res.PValue > 0.05 {
		t.Errorf("p-value = %v", res.PValue)
	}
}

func TestARCHTestAcceptsIIDNull(t *testing.T) {
	// On i.i.d. Gaussians the rejection rate should be near alpha; with a
	// fixed seed we simply require no rejection for this realisation.
	rejections := 0
	const trials = 20
	for seed := int64(0); seed < trials; seed++ {
		a := iidNormal(1, 600, 100+seed)
		res, err := ARCHTest(a, 3, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject {
			rejections++
		}
	}
	if rejections > trials/3 {
		t.Errorf("i.i.d. null rejected %d/%d times", rejections, trials)
	}
}

func TestARCHTestValidation(t *testing.T) {
	a := iidNormal(1, 100, 8)
	if _, err := ARCHTest(a, 0, 0.05); !errors.Is(err, ErrOrder) {
		t.Error("m=0 accepted")
	}
	if _, err := ARCHTest(a, 2, 0); !errors.Is(err, ErrBadArg) {
		t.Error("alpha=0 accepted")
	}
	if _, err := ARCHTest(a, 2, 1); !errors.Is(err, ErrBadArg) {
		t.Error("alpha=1 accepted")
	}
	if _, err := ARCHTest(a[:5], 3, 0.05); !errors.Is(err, ErrShortInput) {
		t.Error("short input accepted")
	}
}

func TestARCHTestCriticalValuesMatchChiSquare(t *testing.T) {
	a := simulateGARCH(0.1, 0.2, 0.7, 800, 9)
	for _, m := range []int{1, 2, 4, 8} {
		res, err := ARCHTest(a, m, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		// Spot-check the critical values against the chi-square table.
		table := map[int]float64{1: 3.8415, 2: 5.9915, 4: 9.4877, 8: 15.5073}
		if math.Abs(res.Critical-table[m]) > 0.001 {
			t.Errorf("crit(m=%d) = %v, want %v", m, res.Critical, table[m])
		}
	}
}

func TestStringAndOrder(t *testing.T) {
	g := &Model{M: 1, S: 1, Alpha0: 0.1, Alpha: []float64{0.1}, Beta: []float64{0.8}}
	if g.String() == "" {
		t.Error("empty String()")
	}
	if m, s := g.Order(); m != 1 || s != 1 {
		t.Error("Order wrong")
	}
}

// On a volatility-clustered series, the fitted conditional variances should
// be higher (on average) during the high-volatility half than the calm half.
func TestVolatilityTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 1000
	a := make([]float64, n)
	for i := range a {
		sigma := 0.5
		if i >= n/2 {
			sigma = 3.0
		}
		a[i] = sigma * rng.NormFloat64()
	}
	g, err := Fit(a, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2 := g.ConditionalVariances(a)
	meanCalm, meanWild := 0.0, 0.0
	for i := 50; i < n/2; i++ {
		meanCalm += s2[i]
	}
	for i := n/2 + 50; i < n; i++ {
		meanWild += s2[i]
	}
	meanCalm /= float64(n/2 - 50)
	meanWild /= float64(n/2 - 50)
	if meanWild < 3*meanCalm {
		t.Errorf("volatility tracking weak: calm %v wild %v", meanCalm, meanWild)
	}
}
