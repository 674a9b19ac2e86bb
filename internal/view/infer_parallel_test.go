package view_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clean"
	"repro/internal/dataset"
	"repro/internal/density"
	"repro/internal/query"
	"repro/internal/timeseries"
	"repro/internal/view"
)

// inferWorkerCounts are the worker counts the parallel inference stage must
// agree at: sequential, the 2-core benchmark box, an odd count above the
// core count, and all cores.
func inferWorkerCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// sameTuples reports whether two tuple slices are bit-identical.
func sameTuples(a, b []view.Tuple) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d tuples vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.T != y.T || math.Float64bits(x.RHat) != math.Float64bits(y.RHat) ||
			math.Float64bits(x.Sigma) != math.Float64bits(y.Sigma) || x.Dist != y.Dist {
			return fmt.Errorf("tuple %d: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

// TestTuplesFromSeriesParallelParity is the determinism contract of the
// parallel inference stage: for every metric query.BuildMetric can return,
// every worker count yields the sequential tuples bit for bit. Run under
// -race it also shows the fits share no mutable state.
func TestTuplesFromSeriesParallelParity(t *testing.T) {
	campus := dataset.Campus(dataset.CampusConfig{N: 400})
	svMax, err := clean.LearnSVMax(campus.Values()[:90], 8)
	if err != nil {
		t.Fatal(err)
	}
	specs := []*query.MetricSpec{
		{Name: "UT", Params: map[string]float64{"u": 0.5}},
		{Name: "VT"},
		{Name: "ARMA_GARCH"},
		{Name: "KALMAN_GARCH"},
		{Name: "CGARCH", Params: map[string]float64{"svmax": svMax}},
	}
	const h = 40
	for _, spec := range specs {
		metric, err := query.BuildMetric(spec)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(spec.Name, func(t *testing.T) {
			// A window range that starts and ends mid-series, so the
			// binary search bounds both ends.
			want, err := view.TuplesFromSeries(campus, metric, h, 150, 209, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != 60 {
				t.Fatalf("got %d tuples, want 60", len(want))
			}
			for _, w := range inferWorkerCounts() {
				got, err := view.TuplesFromSeries(campus, metric, h, 150, 209, w)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if err := sameTuples(got, want); err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
			}
		})
	}
}

// TestTuplesFromSeriesRange checks the in-range window selection: the
// predicted timestamps are exactly those in [tLo, tHi] with a full window
// before them, on a series whose timestamps are not the indices.
func TestTuplesFromSeriesRange(t *testing.T) {
	pts := make([]timeseries.Point, 100)
	for i := range pts {
		pts[i] = timeseries.Point{T: int64(10 * i), V: math.Sin(float64(i))}
	}
	s, err := timeseries.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := density.NewVariableThresholding(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		lo, hi        int64
		first, last   int64
		wantNoTuples  bool
		wantBadWindow bool
	}{
		{lo: math.MinInt64, hi: math.MaxInt64, first: 200, last: 990},
		{lo: 455, hi: 501, first: 460, last: 500},
		{lo: 0, hi: 200, first: 200, last: 200},
		{lo: 0, hi: 199, wantNoTuples: true},
		{lo: 991, hi: 5000, wantNoTuples: true},
	}
	for _, tc := range cases {
		for _, w := range []int{1, 3} {
			tuples, err := view.TuplesFromSeries(s, m, 20, tc.lo, tc.hi, w)
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantNoTuples {
				if len(tuples) != 0 {
					t.Errorf("[%d, %d]: %d tuples, want none", tc.lo, tc.hi, len(tuples))
				}
				continue
			}
			if n := len(tuples); n == 0 || tuples[0].T != tc.first || tuples[n-1].T != tc.last || n != int((tc.last-tc.first)/10+1) {
				t.Errorf("[%d, %d] workers=%d: got %d tuples", tc.lo, tc.hi, w, n)
			}
		}
	}
	if _, err := view.TuplesFromSeries(s, m, 100, 0, 1000); !errors.Is(err, timeseries.ErrBadWindow) {
		t.Errorf("H = series length: %v, want ErrBadWindow", err)
	}
}

// failingMetric fails on the windows whose last value is in fail; the
// series it runs over holds its own index as the value, so the last value
// of a window names the window. Windows listed in slow sleep first, which
// lets later failures be recorded before an earlier one.
type failingMetric struct {
	fail  map[float64]bool
	slow  map[float64]bool
	calls atomic.Int64
}

func (m *failingMetric) Name() string   { return "failing" }
func (m *failingMetric) MinWindow() int { return 1 }

func (m *failingMetric) Infer(w []float64) (*density.Inference, error) {
	m.calls.Add(1)
	last := w[len(w)-1]
	if m.slow[last] {
		time.Sleep(5 * time.Millisecond)
	}
	if m.fail[last] {
		return nil, fmt.Errorf("window ending at %v failed", last)
	}
	return &density.Inference{RHat: last, Sigma: 1}, nil
}

func indexSeries(n int) *timeseries.Series {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(i)
	}
	return timeseries.FromValues(vs)
}

// TestTuplesFromSeriesFirstError shows that every worker count reports the
// error of the earliest failing window, as the sequential loop does, even
// when a later window fails first.
func TestTuplesFromSeriesFirstError(t *testing.T) {
	s := indexSeries(200)
	cases := []struct {
		name       string
		fail, slow []float64
	}{
		{"single", []float64{57}, nil},
		{"several", []float64{12, 13, 90, 150}, nil},
		{"earliest is slowest", []float64{20, 21, 40, 150}, []float64{20}},
		{"first window", []float64{4, 100}, []float64{4}},
	}
	for _, tc := range cases {
		m := &failingMetric{fail: map[float64]bool{}, slow: map[float64]bool{}}
		for _, v := range tc.fail {
			m.fail[v] = true
		}
		for _, v := range tc.slow {
			m.slow[v] = true
		}
		_, want := view.TuplesFromSeries(s, m, 5, math.MinInt64, math.MaxInt64, 1)
		if want == nil || want.Error() != fmt.Sprintf("window ending at %v failed", tc.fail[0]) {
			t.Fatalf("%s: sequential error %v", tc.name, want)
		}
		for _, w := range inferWorkerCounts() {
			tuples, err := view.TuplesFromSeries(s, m, 5, math.MinInt64, math.MaxInt64, w)
			if err == nil || err.Error() != want.Error() || tuples != nil {
				t.Errorf("%s workers=%d: got (%d tuples, %v), want %v", tc.name, w, len(tuples), err, want)
			}
		}
	}
}

// TestTuplesFromSeriesStopsAfterFailure shows that workers stop claiming
// windows once a failure is known: an early failure in a long series
// leaves most windows unfitted.
func TestTuplesFromSeriesStopsAfterFailure(t *testing.T) {
	s := indexSeries(2000)
	m := &slowAfterMetric{failAt: 10}
	if _, err := view.TuplesFromSeries(s, m, 5, math.MinInt64, math.MaxInt64, 2); err == nil {
		t.Fatal("failure not reported")
	}
	if calls := m.calls.Load(); calls > 1000 {
		t.Errorf("%d of %d windows fitted after an early failure", calls, s.Len()-5)
	}
}

// slowAfterMetric fails on the window ending at failAt and takes a
// millisecond on every later one.
type slowAfterMetric struct {
	failAt float64
	calls  atomic.Int64
}

func (m *slowAfterMetric) Name() string   { return "slow-after" }
func (m *slowAfterMetric) MinWindow() int { return 1 }

func (m *slowAfterMetric) Infer(w []float64) (*density.Inference, error) {
	m.calls.Add(1)
	last := w[len(w)-1]
	switch {
	case last == m.failAt:
		return nil, errors.New("failed")
	case last > m.failAt:
		time.Sleep(time.Millisecond)
	}
	return &density.Inference{RHat: last, Sigma: 1}, nil
}
