package kalman

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// simulateLocalLevel draws a local-level path: x random walk, r = x + noise.
func simulateLocalLevel(sigmaE, sigmaEta float64, n int, seed int64) (states, obs []float64) {
	rng := rand.New(rand.NewSource(seed))
	states = make([]float64, n)
	obs = make([]float64, n)
	x := 0.0
	for i := 0; i < n; i++ {
		if i > 0 {
			x += sigmaE * rng.NormFloat64()
		}
		states[i] = x
		obs[i] = x + sigmaEta*rng.NormFloat64()
	}
	return states, obs
}

func TestFilterTracksState(t *testing.T) {
	states, obs := simulateLocalLevel(0.5, 1.0, 500, 1)
	m := &Model{C1: 1, C2: 1, Sigma2E: 0.25, Sigma2Eta: 1, X0: 0, P0: 1}
	f, err := m.Filter(obs)
	if err != nil {
		t.Fatal(err)
	}
	// Filtered MSE vs true state must beat raw observation MSE.
	var mseFilt, mseObs float64
	for i := 50; i < len(obs); i++ {
		mseFilt += (f.State[i] - states[i]) * (f.State[i] - states[i])
		mseObs += (obs[i] - states[i]) * (obs[i] - states[i])
	}
	if mseFilt >= mseObs {
		t.Errorf("filter MSE %v not better than observation MSE %v", mseFilt, mseObs)
	}
}

func TestFilterValidation(t *testing.T) {
	m := &Model{C1: 1, C2: 1, Sigma2E: 0.1, Sigma2Eta: 1, P0: 1}
	if _, err := m.Filter(nil); !errors.Is(err, ErrShortInput) {
		t.Error("empty observations accepted")
	}
	bad := &Model{C1: 1, C2: 1, Sigma2E: 0.1, Sigma2Eta: 0, P0: 1}
	if _, err := bad.Filter([]float64{1}); !errors.Is(err, ErrBadArg) {
		t.Error("zero observation noise accepted")
	}
	neg := &Model{C1: 1, C2: 1, Sigma2E: -0.1, Sigma2Eta: 1, P0: 1}
	if _, err := neg.Filter([]float64{1}); !errors.Is(err, ErrBadArg) {
		t.Error("negative state noise accepted")
	}
}

func TestFilterVariancesPositive(t *testing.T) {
	_, obs := simulateLocalLevel(0.3, 0.8, 200, 2)
	m := &Model{C1: 1, C2: 1, Sigma2E: 0.09, Sigma2Eta: 0.64, X0: 0, P0: 1}
	f, err := m.Filter(obs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range obs {
		if f.Var[i] <= 0 || f.PredVar[i] <= 0 {
			t.Fatalf("non-positive variance at %d: %v %v", i, f.Var[i], f.PredVar[i])
		}
		if f.Var[i] > f.PredVar[i] {
			t.Fatalf("update increased variance at %d", i)
		}
	}
}

func TestSmootherReducesVariance(t *testing.T) {
	_, obs := simulateLocalLevel(0.5, 1.0, 300, 3)
	m := &Model{C1: 1, C2: 1, Sigma2E: 0.25, Sigma2Eta: 1, X0: 0, P0: 1}
	f, err := m.Filter(obs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Smooth(obs, f)
	if err != nil {
		t.Fatal(err)
	}
	// Smoothed variances never exceed filtered variances (information from
	// the future can only help), except trivially at the last step where
	// they coincide.
	for i := 0; i < len(obs)-1; i++ {
		if s.Var[i] > f.Var[i]+1e-12 {
			t.Fatalf("smoothed variance exceeds filtered at %d: %v > %v", i, s.Var[i], f.Var[i])
		}
	}
	if s.Var[len(obs)-1] != f.Var[len(obs)-1] {
		t.Error("smoother must agree with filter at the last step")
	}
}

func TestSmootherTracksStateBetterThanFilter(t *testing.T) {
	states, obs := simulateLocalLevel(0.5, 1.0, 500, 4)
	m := &Model{C1: 1, C2: 1, Sigma2E: 0.25, Sigma2Eta: 1, X0: 0, P0: 1}
	f, _ := m.Filter(obs)
	s, err := m.Smooth(obs, f)
	if err != nil {
		t.Fatal(err)
	}
	var mseFilt, mseSmooth float64
	for i := range obs {
		mseFilt += (f.State[i] - states[i]) * (f.State[i] - states[i])
		mseSmooth += (s.State[i] - states[i]) * (s.State[i] - states[i])
	}
	if mseSmooth >= mseFilt {
		t.Errorf("smoother MSE %v not better than filter MSE %v", mseSmooth, mseFilt)
	}
}

func TestSmoothValidation(t *testing.T) {
	m := &Model{C1: 1, C2: 1, Sigma2E: 0.1, Sigma2Eta: 1, P0: 1}
	obs := []float64{1, 2, 3}
	f, _ := m.Filter(obs)
	if _, err := m.Smooth([]float64{1}, f); !errors.Is(err, ErrBadArg) {
		t.Error("mismatched lengths accepted")
	}
}

func TestFitEMRecoversVarianceRatio(t *testing.T) {
	// What matters for filtering is the signal-to-noise ratio q = s2E/s2Eta;
	// EM on a long window should land in the right decade.
	_, obs := simulateLocalLevel(0.5, 1.0, 2000, 5)
	m, iters, err := FitEM(obs, &EMSettings{MaxIter: 200, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if iters < 2 {
		t.Errorf("EM converged suspiciously fast: %d iterations", iters)
	}
	qTrue := 0.25 / 1.0
	qHat := m.Sigma2E / m.Sigma2Eta
	if qHat < qTrue/4 || qHat > qTrue*4 {
		t.Errorf("signal-to-noise ratio = %v, want ~%v (model %v)", qHat, qTrue, m)
	}
}

func TestFitEMShortInput(t *testing.T) {
	if _, _, err := FitEM([]float64{1, 2, 3}, nil); !errors.Is(err, ErrShortInput) {
		t.Error("short input accepted")
	}
}

func TestFitEMConstantWindow(t *testing.T) {
	obs := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	m, _, err := FitEM(obs, nil)
	if err != nil {
		t.Fatalf("constant window failed: %v", err)
	}
	rhat, _, err := m.Forecast(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rhat-5) > 0.01 {
		t.Errorf("constant forecast = %v", rhat)
	}
}

func TestFitEMLikelihoodMonotone(t *testing.T) {
	// EM must not decrease the likelihood between iterations; test by
	// running 1 vs 20 iterations and comparing attained log-likelihood.
	_, obs := simulateLocalLevel(0.4, 0.9, 400, 6)
	m1, _, err := FitEM(obs, &EMSettings{MaxIter: 1, Tol: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	m20, _, err := FitEM(obs, &EMSettings{MaxIter: 20, Tol: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := m1.Filter(obs)
	f20, _ := m20.Filter(obs)
	if f20.LogL < f1.LogL-1e-6 {
		t.Errorf("more EM iterations decreased likelihood: %v -> %v", f1.LogL, f20.LogL)
	}
}

func TestForecastNearLastStateForSmoothSeries(t *testing.T) {
	// On a slowly-varying series the forecast should stay near the data.
	obs := make([]float64, 100)
	for i := range obs {
		obs[i] = 10 + 0.01*float64(i)
	}
	rhat, m, err := FitForecast(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rhat-obs[len(obs)-1]) > 0.5 {
		t.Errorf("forecast %v far from last value %v (model %v)", rhat, obs[len(obs)-1], m)
	}
}

func TestForecastPredVarPositive(t *testing.T) {
	_, obs := simulateLocalLevel(0.3, 1.0, 200, 7)
	m, _, err := FitEM(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, pv, err := m.Forecast(obs)
	if err != nil {
		t.Fatal(err)
	}
	if pv <= 0 {
		t.Errorf("prediction variance = %v", pv)
	}
}

func TestResidualsCentered(t *testing.T) {
	_, obs := simulateLocalLevel(0.5, 1.0, 1000, 8)
	m, _, err := FitEM(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	rhat, res, err := m.ForecastResiduals(obs)
	if err != nil {
		t.Fatal(err)
	}
	if want, _, _ := m.Forecast(obs); rhat != want {
		t.Errorf("ForecastResiduals forecast %v, Forecast %v", rhat, want)
	}
	if len(res) != len(obs) {
		t.Fatalf("residual length %d", len(res))
	}
	mean := 0.0
	for _, v := range res[10:] {
		mean += v
	}
	mean /= float64(len(res) - 10)
	if math.Abs(mean) > 0.2 {
		t.Errorf("residual mean = %v", mean)
	}
}

func TestStringSmoke(t *testing.T) {
	m := &Model{C1: 1, C2: 1, Sigma2E: 0.1, Sigma2Eta: 0.2}
	if m.String() == "" {
		t.Error("empty String()")
	}
}
