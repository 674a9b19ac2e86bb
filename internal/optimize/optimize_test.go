package optimize

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNelderMeadQuadratic(t *testing.T) {
	// f(x) = (x0-1)^2 + (x1+2)^2 has minimum at (1, -2).
	f := func(x []float64) float64 {
		return (x[0]-1)*(x[0]-1) + (x[1]+2)*(x[1]+2)
	}
	res, err := NelderMead(f, []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("expected convergence")
	}
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]+2) > 1e-4 {
		t.Errorf("minimiser = %v", res.X)
	}
	if res.F > 1e-8 {
		t.Errorf("minimum value = %v", res.F)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res, err := NelderMead(f, []float64{-1.2, 1}, &NelderMeadSettings{MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("Rosenbrock minimiser = %v (f=%v, iters=%d)", res.X, res.F, res.Iters)
	}
}

func TestNelderMeadOneDimensional(t *testing.T) {
	f := func(x []float64) float64 { return math.Cosh(x[0] - 3) }
	res, err := NelderMead(f, []float64{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-3) > 1e-4 {
		t.Errorf("minimiser = %v", res.X)
	}
}

func TestNelderMeadHandlesNaNRegions(t *testing.T) {
	// Objective is NaN for x < 0; the simplex must avoid that region.
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.NaN()
		}
		return (x[0] - 2) * (x[0] - 2)
	}
	res, err := NelderMead(f, []float64{0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-4 {
		t.Errorf("minimiser = %v", res.X)
	}
}

func TestNelderMeadZeroStartingCoordinate(t *testing.T) {
	f := func(x []float64) float64 { return x[0]*x[0] + (x[1]-1)*(x[1]-1) }
	res, err := NelderMead(f, []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]) > 1e-4 || math.Abs(res.X[1]-1) > 1e-4 {
		t.Errorf("minimiser = %v", res.X)
	}
}

func TestNelderMeadBadArgs(t *testing.T) {
	f := func(x []float64) float64 { return 0 }
	if _, err := NelderMead(f, nil, nil); err != ErrBadArg {
		t.Error("empty x0 not rejected")
	}
	if _, err := NelderMead(f, []float64{math.NaN()}, nil); err != ErrBadArg {
		t.Error("NaN x0 not rejected")
	}
	if _, err := NelderMead(f, []float64{math.Inf(1)}, nil); err != ErrBadArg {
		t.Error("Inf x0 not rejected")
	}
}

func TestNelderMeadMaxIterReturnsBest(t *testing.T) {
	f := func(x []float64) float64 { return x[0] * x[0] }
	res, err := NelderMead(f, []float64{100}, &NelderMeadSettings{MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("3 iterations should not converge from x=100")
	}
	if res.F > 100*100 {
		t.Error("result worse than starting point")
	}
}

func TestGoldenSection(t *testing.T) {
	f := func(x float64) float64 { return (x - 1.5) * (x - 1.5) }
	x, fx, err := GoldenSection(f, -10, 10, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-1.5) > 1e-6 {
		t.Errorf("minimiser = %v", x)
	}
	if fx > 1e-10 {
		t.Errorf("minimum = %v", fx)
	}
}

func TestGoldenSectionBadArgs(t *testing.T) {
	f := func(x float64) float64 { return x }
	if _, _, err := GoldenSection(f, 1, 0, 1e-6); err != ErrBadArg {
		t.Error("a>b not rejected")
	}
	if _, _, err := GoldenSection(f, 0, 1, 0); err != ErrBadArg {
		t.Error("tol=0 not rejected")
	}
}

func TestGradientOfQuadratic(t *testing.T) {
	f := func(x []float64) float64 { return 3*x[0]*x[0] + 2*x[1] }
	g := Gradient(f, []float64{2, 5}, 0)
	if math.Abs(g[0]-12) > 1e-5 {
		t.Errorf("g[0] = %v, want 12", g[0])
	}
	if math.Abs(g[1]-2) > 1e-5 {
		t.Errorf("g[1] = %v, want 2", g[1])
	}
}

func TestLogisticLogitRoundTrip(t *testing.T) {
	for _, p := range []float64{0.01, 0.3, 0.5, 0.9, 0.999} {
		x, err := Logit(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(Logistic(x)-p) > 1e-12 {
			t.Errorf("Logistic(Logit(%v)) = %v", p, Logistic(x))
		}
	}
	if _, err := Logit(0); err != ErrBadArg {
		t.Error("Logit(0) not rejected")
	}
	if _, err := Logit(1); err != ErrBadArg {
		t.Error("Logit(1) not rejected")
	}
}

func TestLogisticExtremes(t *testing.T) {
	if Logistic(1000) != 1 {
		t.Errorf("Logistic(1000) = %v", Logistic(1000))
	}
	if Logistic(-1000) != 0 {
		t.Errorf("Logistic(-1000) = %v", Logistic(-1000))
	}
	if Logistic(0) != 0.5 {
		t.Errorf("Logistic(0) = %v", Logistic(0))
	}
}

// Property: Logistic maps any real into [0,1] and is monotone.
func TestQuickLogisticMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		la, lb := Logistic(lo), Logistic(hi)
		return la >= 0 && lb <= 1 && la <= lb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Nelder-Mead on a random shifted quadratic recovers the shift.
func TestQuickNelderMeadShiftedQuadratic(t *testing.T) {
	f := func(s1, s2 float64) bool {
		a := math.Mod(s1, 10)
		b := math.Mod(s2, 10)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		obj := func(x []float64) float64 {
			return (x[0]-a)*(x[0]-a) + 2*(x[1]-b)*(x[1]-b)
		}
		res, err := NelderMead(obj, []float64{0, 0}, &NelderMeadSettings{MaxIter: 2000})
		if err != nil {
			return false
		}
		return math.Abs(res.X[0]-a) < 1e-3 && math.Abs(res.X[1]-b) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSimplexSortMatchesSortSlice pins the vertex order, ties included, to
// the sort.Slice call the insertion sort replaced: for up to 12 elements
// sort.Slice runs the same insertion sort from the same identity order.
func TestSimplexSortMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(11) // 2..12 vertices
		sx := newSimplex(n)
		for i := range sx.fvals {
			// Few distinct values, so ties are common.
			switch v := rng.Intn(5); v {
			case 4:
				sx.fvals[i] = math.Inf(1)
			default:
				sx.fvals[i] = float64(v)
			}
		}
		want := make([]int, n+1)
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(a, b int) bool { return sx.fvals[want[a]] < sx.fvals[want[b]] })
		sx.sort()
		for i := range want {
			if sx.order[i] != want[i] {
				t.Fatalf("fvals %v: order %v, sort.Slice %v", sx.fvals, sx.order, want)
			}
		}
	}
}

// TestNelderMeadIterationsAllocFree pins the //tspdb:kernel contract of the
// simplex: the allocations of a search do not depend on how many
// iterations it runs.
func TestNelderMeadIterationsAllocFree(t *testing.T) {
	f := func(x []float64) float64 {
		return 100*(x[1]-x[0]*x[0])*(x[1]-x[0]*x[0]) + (1-x[0])*(1-x[0])
	}
	x0 := []float64{-1.2, 1}
	allocs := func(maxIter int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := NelderMead(f, x0, &NelderMeadSettings{MaxIter: maxIter}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(5), allocs(500)
	if short != long {
		t.Errorf("allocs grow with iterations: %v at 5, %v at 500", short, long)
	}
}
