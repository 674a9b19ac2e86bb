package storage

import (
	"errors"
	"math"
	"testing"

	"repro/internal/view"
)

// checkRows is a valid three-tuple view: two rows at t=1, one at t=2,
// two at t=5, each tuple's mass at most 1.
func checkRows() []view.Row {
	return []view.Row{
		{T: 1, Lambda: -1, Lo: 0, Hi: 1, Prob: 0.4},
		{T: 1, Lambda: 0, Lo: 1, Hi: 2, Prob: 0.6},
		{T: 2, Lambda: 0, Lo: 3, Hi: 3, Prob: 1},
		{T: 5, Lambda: 0, Lo: -2, Hi: -1, Prob: 0.25},
		{T: 5, Lambda: 1, Lo: -1, Hi: 0, Prob: 0.25},
	}
}

// TestCheckAcceptsValidTables runs Check over the table shapes every path
// produces: direct assignment, incremental appends, an empty table, and a
// lazy load.
func TestCheckAcceptsValidTables(t *testing.T) {
	assigned := &ProbTable{Name: "a", Rows: checkRows()}
	appended := &ProbTable{Name: "b"}
	for _, r := range checkRows() {
		if err := appended.AppendRows([]view.Row{r}); err != nil {
			t.Fatal(err)
		}
	}
	lazy := &ProbTable{Name: "c"}
	lazy.SetLoader(5, func() ([]view.Row, error) { return checkRows(), nil })
	for _, p := range []*ProbTable{assigned, appended, {Name: "empty"}, lazy} {
		if err := p.Check(); err != nil {
			t.Errorf("table %q: %v", p.Name, err)
		}
	}
	if n := lazy.NumRows(); n != 5 {
		t.Fatalf("lazy table holds %d rows after Check, want 5", n)
	}
}

// TestCheckReportsViolations breaks one invariant at a time and requires
// Check to report it as ErrInvariant.
func TestCheckReportsViolations(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(p *ProbTable)
	}{
		{"mass above one", func(p *ProbTable) { p.Rows[1].Prob = 0.7 }},
		{"lo above hi", func(p *ProbTable) { p.Rows[3].Lo = 5 }},
		{"nan prob", func(p *ProbTable) { p.Rows[2].Prob = math.NaN() }},
		{"infinite hi", func(p *ProbTable) { p.Rows[4].Hi = math.Inf(1) }},
		{"unsorted groups", func(p *ProbTable) {
			p.extendIndex()
			p.groups[1].T, p.groups[2].T = p.groups[2].T, p.groups[1].T
		}},
		{"gap between groups", func(p *ProbTable) {
			p.extendIndex()
			p.groups[1].Off++
		}},
		{"group misses rows", func(p *ProbTable) {
			p.extendIndex()
			p.groups = p.groups[:2]
		}},
		{"column drifts", func(p *ProbTable) {
			p.extendIndex()
			p.colHi[4] += 1
		}},
		{"column short", func(p *ProbTable) {
			p.extendIndex()
			p.colProb = p.colProb[:4]
		}},
		{"rows counted but absent", func(p *ProbTable) {
			p.extendIndex()
			p.pending = 3
		}},
	}
	for _, tc := range cases {
		p := &ProbTable{Name: "v", Rows: checkRows()}
		tc.mutate(p)
		if err := p.Check(); !errors.Is(err, ErrInvariant) {
			t.Errorf("%s: Check = %v, want ErrInvariant", tc.name, err)
		}
	}
}

// TestCheckSurfacesLoadFailure reports a failed lazy load as that failure.
func TestCheckSurfacesLoadFailure(t *testing.T) {
	boom := errors.New("boom")
	p := &ProbTable{Name: "v"}
	p.SetLoader(3, func() ([]view.Row, error) { return nil, boom })
	if err := p.Check(); !errors.Is(err, boom) {
		t.Fatalf("Check = %v, want the load failure", err)
	}
}

// TestIndexFromZeroExactSize pins the bulk index build: indexing a table
// from zero allocates the columns and the group index at their final
// size, with no regrowth slack.
func TestIndexFromZeroExactSize(t *testing.T) {
	p := &ProbTable{Name: "v", Rows: checkRows()}
	if n := p.NumTimes(); n != 3 {
		t.Fatalf("NumTimes = %d, want 3", n)
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if cap(p.groups) != 3 {
		t.Errorf("groups cap %d, want 3", cap(p.groups))
	}
	for i, c := range []int{cap(p.colT), cap(p.colLo), cap(p.colHi), cap(p.colProb)} {
		if c != len(p.Rows) {
			t.Errorf("column %d cap %d, want %d", i, c, len(p.Rows))
		}
	}
}

// TestCaptureSharesRowPrefix pins copy-free checkpoint capture: the
// captured suffix is the table's own backing array, and it stays intact
// while later appends grow the table past it.
func TestCaptureSharesRowPrefix(t *testing.T) {
	p := &ProbTable{Name: "v"}
	if err := p.AppendRows(checkRows()); err != nil {
		t.Fatal(err)
	}
	st := p.captureState(2)
	if st.From != 2 || st.Total != 5 || len(st.Rows) != 3 || cap(st.Rows) != 3 {
		t.Fatalf("capture from=%d total=%d rows=%d cap=%d", st.From, st.Total, len(st.Rows), cap(st.Rows))
	}
	if &st.Rows[0] != &p.Rows[2] {
		t.Fatal("capture copied the rows instead of sharing the prefix")
	}
	want := append([]view.Row(nil), st.Rows...)
	for i := 0; i < 50; i++ {
		if err := p.AppendRows([]view.Row{{T: int64(10 + i), Lo: 0, Hi: 1, Prob: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		if st.Rows[i] != want[i] {
			t.Fatalf("captured row %d changed under later appends: %+v, want %+v", i, st.Rows[i], want[i])
		}
	}
}
