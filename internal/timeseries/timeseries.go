// Package timeseries defines the raw-value time-series types of the paper's
// framework (Section II-A): a Series is the sequence S = <r_1, ..., r_t> of
// timestamped imprecise raw values, and a Window is the sliding window
// S^H_{t-1} = <r_{t-H}, ..., r_{t-1}> that the dynamic density metrics
// consume. The package also provides CSV encoding/decoding and summary
// statistics used by the dataset tooling.
package timeseries

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"repro/internal/stat"
)

// Errors reported by the package.
var (
	ErrEmpty      = errors.New("timeseries: empty series")
	ErrBadWindow  = errors.New("timeseries: invalid window specification")
	ErrUnsorted   = errors.New("timeseries: timestamps not strictly increasing")
	ErrNonFinite  = errors.New("timeseries: value is NaN or infinite")
	ErrBadCSV     = errors.New("timeseries: malformed CSV input")
	ErrOutOfRange = errors.New("timeseries: index out of range")
)

// Point is a single timestamped raw value r_t.
type Point struct {
	T int64   // timestamp (application-defined unit: seconds, minutes, ticks)
	V float64 // raw (imprecise) value
}

// Series is an ordered sequence of points with strictly increasing
// timestamps.
type Series struct {
	pts []Point
}

// New creates a Series from points, verifying that timestamps strictly
// increase and that every value is finite. The slice is copied.
func New(pts []Point) (*Series, error) {
	s := &Series{pts: make([]Point, len(pts))}
	copy(s.pts, pts)
	for i, p := range s.pts {
		if err := checkFinite(p); err != nil {
			return nil, err
		}
		if i > 0 && p.T <= s.pts[i-1].T {
			return nil, fmt.Errorf("%w: index %d (t=%d after t=%d)",
				ErrUnsorted, i, p.T, s.pts[i-1].T)
		}
	}
	return s, nil
}

// checkFinite rejects a NaN or infinite value: one such point would break
// every model fit over a window that contains it.
func checkFinite(p Point) error {
	if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
		return fmt.Errorf("%w: t=%d v=%v", ErrNonFinite, p.T, p.V)
	}
	return nil
}

// FromValues builds a series with timestamps 1..len(vs) (the convention used
// throughout the paper's examples).
func FromValues(vs []float64) *Series {
	pts := make([]Point, len(vs))
	for i, v := range vs {
		pts[i] = Point{T: int64(i + 1), V: v}
	}
	return &Series{pts: pts}
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.pts) }

// At returns the i-th point (0-based).
func (s *Series) At(i int) (Point, error) {
	if i < 0 || i >= len(s.pts) {
		return Point{}, ErrOutOfRange
	}
	return s.pts[i], nil
}

// Values returns a copy of all raw values in order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.pts))
	for i, p := range s.pts {
		out[i] = p.V
	}
	return out
}

// Times returns a copy of all timestamps in order.
func (s *Series) Times() []int64 {
	out := make([]int64, len(s.pts))
	for i, p := range s.pts {
		out[i] = p.T
	}
	return out
}

// Append adds a point to the end of the series; its timestamp must exceed the
// current last timestamp and its value must be finite. This is the
// online-mode ingestion path.
func (s *Series) Append(p Point) error {
	if err := s.CheckAppend(p); err != nil {
		return err
	}
	s.pts = append(s.pts, p)
	return nil
}

// CheckAppend reports the error Append would return for p, without
// mutating the series.
func (s *Series) CheckAppend(p Point) error {
	if err := checkFinite(p); err != nil {
		return err
	}
	if n := len(s.pts); n > 0 && p.T <= s.pts[n-1].T {
		return fmt.Errorf("%w: append t=%d after t=%d", ErrUnsorted, p.T, s.pts[n-1].T)
	}
	return nil
}

// Slice returns the sub-series of points with index in [i, j) (half-open).
// The returned series shares no storage with s.
func (s *Series) Slice(i, j int) (*Series, error) {
	if i < 0 || j > len(s.pts) || i > j {
		return nil, ErrOutOfRange
	}
	out := make([]Point, j-i)
	copy(out, s.pts[i:j])
	return &Series{pts: out}, nil
}

// TimeRange returns the sub-series with timestamps in [tLo, tHi] (inclusive,
// matching the WHERE t >= lo AND t <= hi clause of the view query).
func (s *Series) TimeRange(tLo, tHi int64) *Series {
	lo := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T >= tLo })
	hi := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T > tHi })
	out := make([]Point, hi-lo)
	copy(out, s.pts[lo:hi])
	return &Series{pts: out}
}

// IndexOfTime returns the index of the first point with timestamp >= t, or
// Len() if none.
func (s *Series) IndexOfTime(t int64) int {
	return sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T >= t })
}

// Window is the sliding window S^H_{t-1}: the H raw values immediately
// preceding the inference time t.
type Window struct {
	// Values are the H raw values r_{t-H}, ..., r_{t-1} in time order.
	Values []float64
	// EndIndex is the series index of the last value in the window
	// (i.e. the index of r_{t-1}); the inference target is EndIndex+1.
	EndIndex int
}

// H returns the window length.
func (w Window) H() int { return len(w.Values) }

// WindowEnding returns the window of length h whose last element is the point
// at index end (so it predicts index end+1). It requires end >= h-1.
func (s *Series) WindowEnding(end, h int) (Window, error) {
	if h <= 0 {
		return Window{}, fmt.Errorf("%w: H=%d", ErrBadWindow, h)
	}
	if end < h-1 || end >= len(s.pts) {
		return Window{}, fmt.Errorf("%w: end=%d H=%d len=%d", ErrBadWindow, end, h, len(s.pts))
	}
	vals := make([]float64, h)
	s.copyWindow(end, vals)
	return Window{Values: vals, EndIndex: end}, nil
}

// WindowInto copies the len(dst) values ending at index end into dst (so
// they predict index end+1), allocating nothing. It requires
// len(dst)-1 <= end < Len().
func (s *Series) WindowInto(end int, dst []float64) error {
	if len(dst) == 0 || end < len(dst)-1 || end >= len(s.pts) {
		return fmt.Errorf("%w: end=%d H=%d len=%d", ErrBadWindow, end, len(dst), len(s.pts))
	}
	s.copyWindow(end, dst)
	return nil
}

func (s *Series) copyWindow(end int, dst []float64) {
	first := end - len(dst) + 1
	for i := range dst {
		dst[i] = s.pts[first+i].V
	}
}

// Windows iterates all windows of length h whose successor point exists,
// i.e. windows ending at indices h-1 .. Len()-2, calling fn with the window
// and the actual next value r_t. Iteration stops early if fn returns false.
func (s *Series) Windows(h int, fn func(w Window, next Point) bool) error {
	if h <= 0 || h >= len(s.pts) {
		return fmt.Errorf("%w: H=%d len=%d", ErrBadWindow, h, len(s.pts))
	}
	for end := h - 1; end+1 < len(s.pts); end++ {
		w, err := s.WindowEnding(end, h)
		if err != nil {
			return err
		}
		if !fn(w, s.pts[end+1]) {
			return nil
		}
	}
	return nil
}

// Summary holds descriptive statistics of a series.
type Summary struct {
	N             int
	Min, Max      float64
	Mean, StdDev  float64
	MeanInterval  float64 // mean timestamp spacing
	FirstT, LastT int64
}

// Summarize computes a Summary of s.
func (s *Series) Summarize() (Summary, error) {
	if len(s.pts) == 0 {
		return Summary{}, ErrEmpty
	}
	vs := s.Values()
	lo, hi, err := stat.MinMax(vs)
	if err != nil {
		return Summary{}, err
	}
	sum := Summary{
		N:      len(vs),
		Min:    lo,
		Max:    hi,
		Mean:   stat.Mean(vs),
		StdDev: stat.StdDev(vs),
		FirstT: s.pts[0].T,
		LastT:  s.pts[len(s.pts)-1].T,
	}
	if len(s.pts) > 1 {
		sum.MeanInterval = float64(sum.LastT-sum.FirstT) / float64(len(s.pts)-1)
	}
	return sum, nil
}

// Clone returns a deep copy of s.
func (s *Series) Clone() *Series {
	out := make([]Point, len(s.pts))
	copy(out, s.pts)
	return &Series{pts: out}
}

// SetValue overwrites the value at index i (used by cleaning filters that
// replace erroneous values with inferred ones).
func (s *Series) SetValue(i int, v float64) error {
	if i < 0 || i >= len(s.pts) {
		return ErrOutOfRange
	}
	s.pts[i].V = v
	return nil
}

// WriteCSV writes the series as "t,value" rows with a header.
func (s *Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t", "value"}); err != nil {
		return err
	}
	for _, p := range s.pts {
		rec := []string{
			strconv.FormatInt(p.T, 10),
			strconv.FormatFloat(p.V, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a series from "t,value" rows; a first row that fails to
// parse as numbers is treated as a header and skipped.
func ReadCSV(r io.Reader) (*Series, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	var pts []Point
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadCSV, err)
		}
		t, errT := strconv.ParseInt(rec[0], 10, 64)
		v, errV := strconv.ParseFloat(rec[1], 64)
		if errT != nil || errV != nil {
			if first {
				first = false
				continue // header row
			}
			return nil, fmt.Errorf("%w: row %q", ErrBadCSV, rec)
		}
		first = false
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite value in row %q", ErrBadCSV, rec)
		}
		pts = append(pts, Point{T: t, V: v})
	}
	if len(pts) == 0 {
		return nil, ErrEmpty
	}
	return New(pts)
}

// Diff returns the first differences v_i - v_{i-1} of the series values
// (length Len()-1); useful for converting position tracks to increments.
func (s *Series) Diff() []float64 {
	if len(s.pts) < 2 {
		return nil
	}
	out := make([]float64, len(s.pts)-1)
	for i := 1; i < len(s.pts); i++ {
		out[i-1] = s.pts[i].V - s.pts[i-1].V
	}
	return out
}
