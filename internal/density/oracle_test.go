package density_test

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/arma"
	"repro/internal/clean"
	"repro/internal/dataset"
	"repro/internal/density"
	"repro/internal/garch"
	"repro/internal/kalman"
	"repro/internal/stat"
	"repro/internal/timeseries"
)

// This file keeps the allocating model-fit kernels the production code
// replaced with reusable workspaces: the Nelder-Mead search with
// sort.Slice, the GARCH likelihood that decodes into a fresh Model and
// filters into a fresh slice on every objective call, and the Kalman
// filter and smoother that allocate their results on every EM iteration.
// They are the oracles the workspace kernels must match bit for bit.

// oracleNelderMead is optimize.NelderMead with per-iteration allocations
// and a sort.Slice vertex order.
func oracleNelderMead(f func([]float64) float64, x0 []float64, maxIter int, tolF, tolX float64) ([]float64, float64) {
	const step = 0.1
	eval := func(x []float64) float64 {
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}
	n := len(x0)
	verts := make([][]float64, n+1)
	fvals := make([]float64, n+1)
	for i := range verts {
		v := make([]float64, n)
		copy(v, x0)
		if i > 0 {
			j := i - 1
			if v[j] != 0 {
				v[j] += step * math.Abs(v[j])
			} else {
				v[j] = step * 0.0025
			}
		}
		verts[i] = v
		fvals[i] = eval(v)
	}
	order := make([]int, n+1)
	centroid := make([]float64, n)
	trial := make([]float64, n)
	sortSimplex := func() {
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return fvals[order[a]] < fvals[order[b]] })
	}
	for iters := 0; iters < maxIter; iters++ {
		sortSimplex()
		best, worst := order[0], order[n]
		if math.Abs(fvals[worst]-fvals[best]) <= tolF {
			diam := 0.0
			for _, idx := range order[1:] {
				for j := 0; j < n; j++ {
					if d := math.Abs(verts[idx][j] - verts[best][j]); d > diam {
						diam = d
					}
				}
			}
			if diam <= tolX {
				break
			}
		}
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
		for j := 0; j < n; j++ {
			trial[j] = centroid[j] + (centroid[j] - verts[worst][j])
		}
		fr := eval(trial)
		switch {
		case fr < fvals[order[0]]:
			exp := make([]float64, n)
			for j := 0; j < n; j++ {
				exp[j] = centroid[j] + 2*(centroid[j]-verts[worst][j])
			}
			if fe := eval(exp); fe < fr {
				copy(verts[worst], exp)
				fvals[worst] = fe
			} else {
				copy(verts[worst], trial)
				fvals[worst] = fr
			}
		case fr < fvals[order[n-1]]:
			copy(verts[worst], trial)
			fvals[worst] = fr
		default:
			con := make([]float64, n)
			if fr < fvals[worst] {
				for j := 0; j < n; j++ {
					con[j] = centroid[j] + 0.5*(trial[j]-centroid[j])
				}
			} else {
				for j := 0; j < n; j++ {
					con[j] = centroid[j] + 0.5*(verts[worst][j]-centroid[j])
				}
			}
			if fc := eval(con); fc < math.Min(fr, fvals[worst]) {
				copy(verts[worst], con)
				fvals[worst] = fc
			} else {
				for _, idx := range order[1:] {
					for j := 0; j < n; j++ {
						verts[idx][j] = verts[best][j] + 0.5*(verts[idx][j]-verts[best][j])
					}
					fvals[idx] = eval(verts[idx])
				}
			}
		}
	}
	sortSimplex()
	out := make([]float64, n)
	copy(out, verts[order[0]])
	return out, fvals[order[0]]
}

// --- GARCH(m,s) quasi-MLE with an allocating likelihood -------------------

func oracleDecode(theta []float64, m, s int) *garch.Model {
	g := &garch.Model{M: m, S: s, Alpha: make([]float64, m), Beta: make([]float64, s)}
	g.Alpha0 = math.Exp(theta[0])
	for j := 0; j < m; j++ {
		g.Alpha[j] = math.Exp(theta[1+j])
	}
	for j := 0; j < s; j++ {
		g.Beta[j] = math.Exp(theta[1+m+j])
	}
	return g
}

func oracleGARCHFilter(g *garch.Model, a []float64, seed float64) []float64 {
	n := len(a)
	k := max(g.M, g.S)
	sigma2 := make([]float64, n)
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
	return sigma2
}

func oracleLogLikelihood(g *garch.Model, a []float64, seed float64) float64 {
	sigma2 := oracleGARCHFilter(g, a, seed)
	ll := 0.0
	for i := max(g.M, g.S); i < len(a); i++ {
		s2 := sigma2[i]
		if s2 <= 0 || math.IsNaN(s2) {
			return math.Inf(-1)
		}
		ll += -0.5 * (math.Log(2*math.Pi) + math.Log(s2) + a[i]*a[i]/s2)
	}
	return ll
}

// oracleGARCHFitForecast is garch.FitForecast with default settings.
func oracleGARCHFitForecast(a []float64, m, s int) (float64, error) {
	const maxPersistence = 0.9999
	n := len(a)
	if n < max(m, s)+5 || n < 2*(m+s+1) {
		return 0, garch.ErrShortInput
	}
	v := stat.Variance(a)
	if v <= 1e-300 {
		return 0, garch.ErrDegenerate
	}
	nll := func(theta []float64) float64 {
		model := oracleDecode(theta, m, s)
		if model.Persistence() >= maxPersistence {
			return math.Inf(1)
		}
		return -oracleLogLikelihood(model, a, v)
	}
	theta0 := make([]float64, 1+m+s)
	betaShare, sTerm := 0.0, 0.0
	if s > 0 {
		betaShare, sTerm = 0.80/float64(s), 1
	}
	alpha0 := v * (1 - 0.10 - 0.80*sTerm)
	if alpha0 <= 0 {
		alpha0 = v * 0.1
	}
	theta0[0] = math.Log(alpha0)
	for j := 0; j < m; j++ {
		theta0[1+j] = math.Log(0.10 / float64(m))
	}
	for j := 0; j < s; j++ {
		theta0[1+m+j] = math.Log(betaShare)
	}
	x, fx := oracleNelderMead(nll, theta0, 400, 1e-9, 1e-7)
	model := oracleDecode(x, m, s)
	if math.IsInf(fx, 1) {
		model = &garch.Model{M: m, S: s, Alpha0: v * 0.2, Alpha: make([]float64, m), Beta: make([]float64, s)}
		for j := range model.Alpha {
			model.Alpha[j] = 0.05
		}
		for j := range model.Beta {
			model.Beta[j] = 0.7 / float64(max(s, 1))
		}
	}
	// Forecast (Eq. 6).
	sigma2 := oracleGARCHFilter(model, a, stat.Variance(a))
	s2 := model.Alpha0
	for j := 1; j <= m; j++ {
		s2 += model.Alpha[j-1] * a[n-j] * a[n-j]
	}
	for j := 1; j <= s; j++ {
		s2 += model.Beta[j-1] * sigma2[n-j]
	}
	if s2 <= 0 || math.IsNaN(s2) {
		return 0, garch.ErrDegenerate
	}
	return s2, nil
}

// --- Kalman EM with an allocating filter and smoother ---------------------

func oracleKalmanFilter(m *kalman.Model, r []float64) *kalman.FilterResult {
	n := len(r)
	res := &kalman.FilterResult{
		PredState: make([]float64, n),
		PredVar:   make([]float64, n),
		State:     make([]float64, n),
		Var:       make([]float64, n),
		Gain:      make([]float64, n),
	}
	xPrev, pPrev := m.X0, m.P0
	for i := 0; i < n; i++ {
		xp := m.C1 * xPrev
		pp := m.C1*m.C1*pPrev + m.Sigma2E
		if i == 0 {
			xp, pp = m.X0, m.P0+m.Sigma2E
		}
		f := m.C2*m.C2*pp + m.Sigma2Eta
		v := r[i] - m.C2*xp
		k := pp * m.C2 / f
		x := xp + k*v
		p := (1 - k*m.C2) * pp
		res.PredState[i], res.PredVar[i], res.State[i], res.Var[i], res.Gain[i] = xp, pp, x, p, k
		res.LogL += -0.5 * (math.Log(2*math.Pi) + math.Log(f) + v*v/f)
		xPrev, pPrev = x, p
	}
	return res
}

func oracleKalmanSmooth(m *kalman.Model, f *kalman.FilterResult) (*kalman.SmoothResult, bool) {
	n := len(f.State)
	s := &kalman.SmoothResult{State: make([]float64, n), Var: make([]float64, n), LagCov: make([]float64, n)}
	s.State[n-1] = f.State[n-1]
	s.Var[n-1] = f.Var[n-1]
	js := make([]float64, n)
	for i := n - 2; i >= 0; i-- {
		if f.PredVar[i+1] <= 0 {
			return nil, false
		}
		j := f.Var[i] * m.C1 / f.PredVar[i+1]
		js[i] = j
		s.State[i] = f.State[i] + j*(s.State[i+1]-m.C1*f.State[i])
		s.Var[i] = f.Var[i] + j*j*(s.Var[i+1]-f.PredVar[i+1])
	}
	if n >= 2 {
		s.LagCov[n-1] = (1 - f.Gain[n-1]*m.C2) * m.C1 * f.Var[n-2]
		for i := n - 2; i >= 1; i-- {
			s.LagCov[i] = f.Var[i]*js[i-1] + js[i]*(s.LagCov[i+1]-m.C1*f.Var[i])*js[i-1]
		}
	}
	return s, true
}

// oracleKalmanFitEM is kalman.FitEM; ok is false where FitEM errors.
func oracleKalmanFitEM(r []float64, maxIter int, tol float64) (*kalman.Model, bool) {
	n := len(r)
	v := stat.Variance(r)
	if v <= 1e-300 {
		v = 1e-12
	}
	m := &kalman.Model{C1: 1, C2: 1, Sigma2E: v / 2, Sigma2Eta: v / 2, X0: r[0], P0: v}
	prevLL := math.Inf(-1)
	for iters := 0; iters < maxIter; iters++ {
		if m.Sigma2E < 0 || m.Sigma2Eta <= 0 || m.P0 < 0 {
			return nil, false
		}
		f := oracleKalmanFilter(m, r)
		s, ok := oracleKalmanSmooth(m, f)
		if !ok {
			return nil, false
		}
		var s11, s10, s00 float64
		for i := 1; i < n; i++ {
			s11 += s.State[i]*s.State[i] + s.Var[i]
			s10 += s.State[i]*s.State[i-1] + s.LagCov[i]
			s00 += s.State[i-1]*s.State[i-1] + s.Var[i-1]
		}
		sigma2E := (s11 - 2*s10 + s00) / float64(n-1)
		var sigma2Eta float64
		for i := 0; i < n; i++ {
			d := r[i] - s.State[i]
			sigma2Eta += d*d + s.Var[i]
		}
		sigma2Eta /= float64(n)
		if sigma2E < 1e-12*v {
			sigma2E = 1e-12 * v
		}
		if sigma2Eta < 1e-12*v {
			sigma2Eta = 1e-12 * v
		}
		m.Sigma2E, m.Sigma2Eta = sigma2E, sigma2Eta
		m.X0, m.P0 = s.State[0], s.Var[0]
		if f.LogL < prevLL+tol*(1+math.Abs(prevLL)) && iters > 0 {
			break
		}
		prevLL = f.LogL
	}
	return m, true
}

// --- Metric-level oracles --------------------------------------------------

// oracleSigma runs the GARCH(1,1) stage on innovations, falling back to the
// window variance exactly as the metrics do.
func oracleSigma(resid, window []float64) (float64, error) {
	sigma2, err := oracleGARCHFitForecast(resid, 1, 1)
	if err != nil {
		if !errors.Is(err, garch.ErrDegenerate) && !errors.Is(err, garch.ErrShortInput) {
			return 0, err
		}
		sigma2 = stat.Variance(window)
	}
	return math.Sqrt(sigma2), nil
}

func oracleInference(rhat, sigma float64) *density.Inference {
	if floor := 1e-9 * (1 + math.Abs(rhat)); sigma < floor {
		sigma = floor
	}
	return &density.Inference{RHat: rhat, Sigma: sigma, UB: rhat + 3*sigma, LB: rhat - 3*sigma}
}

// oracleARMAGARCH is density.NewARMAGARCH(1, 0).Infer.
func oracleARMAGARCH(window []float64) (*density.Inference, error) {
	rhat, model, err := arma.FitForecast(window, 1, 0)
	if err != nil {
		return nil, err
	}
	sigma, err := oracleSigma(model.ResidualsOf(window)[1:], window)
	if err != nil {
		return nil, err
	}
	return oracleInference(rhat, sigma), nil
}

// oracleKalmanGARCH is density.NewKalmanGARCH().Infer, with the forecast
// and the innovations each taken from their own filter pass.
func oracleKalmanGARCH(window []float64) (*density.Inference, error) {
	km, ok := oracleKalmanFitEM(window, 500, 1e-12)
	if !ok {
		return nil, kalman.ErrBadArg
	}
	f := oracleKalmanFilter(km, window)
	n := len(window)
	rhat := km.C2 * (km.C1 * f.State[n-1])
	f = oracleKalmanFilter(km, window)
	resid := make([]float64, n)
	for i := range window {
		resid[i] = window[i] - km.C2*f.PredState[i]
	}
	sigma, err := oracleSigma(resid[1:], window)
	if err != nil {
		return nil, err
	}
	return oracleInference(rhat, sigma), nil
}

// oracleWindows returns >= 300 windows of length h drawn from the dataset
// generators: campus, car, campus with injected errors, and constant
// windows whose innovations are degenerate.
func oracleWindows(t *testing.T, h int) [][]float64 {
	t.Helper()
	var out [][]float64
	take := func(s *timeseries.Series, count, stride int) {
		for k := 0; k < count; k++ {
			w, err := s.WindowEnding(h-1+k*stride, h)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, w.Values)
		}
	}
	campus := dataset.Campus(dataset.CampusConfig{N: 4000})
	take(campus, 120, 29)
	take(dataset.Car(dataset.CarConfig{N: 4000}), 120, 31)
	dirty, _, err := dataset.InjectErrors(campus, 60, 6, h, 7)
	if err != nil {
		t.Fatal(err)
	}
	take(dirty, 60, 53)
	for _, v := range []float64{-3, 0, 21.5} {
		w := make([]float64, h)
		for i := range w {
			w[i] = v
		}
		out = append(out, w)
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestInferMatchesAllocatingOracles pins the workspace fit kernels to the
// allocating ones they replaced: over >= 300 dataset windows, including
// constant windows that take the ErrDegenerate fallback, ARMA-GARCH,
// Kalman-GARCH and C-GARCH report bit-identical RHat, Sigma, UB and LB.
func TestInferMatchesAllocatingOracles(t *testing.T) {
	const h = 60
	windows := oracleWindows(t, h)
	if len(windows) < 300 {
		t.Fatalf("only %d windows", len(windows))
	}

	ag, err := density.NewARMAGARCH(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	svMax, err := clean.LearnSVMax(windows[0], 8)
	if err != nil {
		t.Fatal(err)
	}
	metrics := []struct {
		metric density.Metric
		oracle func([]float64) (*density.Inference, error)
	}{
		{ag, oracleARMAGARCH},
		{density.NewKalmanGARCH(), oracleKalmanGARCH},
		{&clean.Metric{Inner: ag, SVMax: svMax}, func(w []float64) (*density.Inference, error) {
			if sv, err := clean.SVRFilter(w, svMax); err == nil {
				w = sv.Cleaned
			}
			return oracleARMAGARCH(w)
		}},
	}
	// The constant windows must reach the fallback, not just pass through.
	constant := windows[len(windows)-1]
	_, model, err := arma.FitForecast(constant, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := garch.FitForecast(model.ResidualsOf(constant)[1:], 1, 1, nil); !errors.Is(err, garch.ErrDegenerate) {
		t.Fatalf("constant window: GARCH error %v, want ErrDegenerate", err)
	}

	for _, mc := range metrics {
		mc := mc
		t.Run(mc.metric.Name(), func(t *testing.T) {
			t.Parallel()
			for i, w := range windows {
				got, gerr := mc.metric.Infer(w)
				want, werr := mc.oracle(w)
				if (gerr != nil) != (werr != nil) {
					t.Fatalf("window %d: error %v, oracle error %v", i, gerr, werr)
				}
				if gerr != nil {
					continue
				}
				if !sameBits(got.RHat, want.RHat) || !sameBits(got.Sigma, want.Sigma) ||
					!sameBits(got.UB, want.UB) || !sameBits(got.LB, want.LB) {
					t.Fatalf("window %d: got (%v, %v, %v, %v), oracle (%v, %v, %v, %v)", i,
						got.RHat, got.Sigma, got.UB, got.LB, want.RHat, want.Sigma, want.UB, want.LB)
				}
			}
		})
	}
}
