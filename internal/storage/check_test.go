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
	lazy.SetLoader(5, loaderOf(checkRows()))
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
			p.materialiseLocked()
			p.blk.Groups[1].T, p.blk.Groups[2].T = p.blk.Groups[2].T, p.blk.Groups[1].T
		}},
		{"gap between groups", func(p *ProbTable) {
			p.materialiseLocked()
			p.blk.Groups[1].Off++
		}},
		{"group misses rows", func(p *ProbTable) {
			p.materialiseLocked()
			p.blk.Groups = p.blk.Groups[:2]
		}},
		{"column short", func(p *ProbTable) {
			p.materialiseLocked()
			p.blk.Prob = p.blk.Prob[:4]
		}},
		{"rows counted but absent", func(p *ProbTable) {
			p.materialiseLocked()
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
	p.SetLoader(3, func(*Block) error { return boom })
	if err := p.Check(); !errors.Is(err, boom) {
		t.Fatalf("Check = %v, want the load failure", err)
	}
}

// TestLoadVerifiesRows pins the check a lazy load runs on what it loaded:
// rows that break an invariant, or a row count other than the one the
// table was armed with, fail the load with ErrInvariant, stickily, and the
// table keeps reporting its durable row count.
func TestLoadVerifiesRows(t *testing.T) {
	flipped := checkRows()
	flipped[3].Lo, flipped[3].Hi = flipped[3].Hi, flipped[3].Lo
	cases := []struct {
		name string
		n    int
		rows []view.Row
	}{
		{"lo above hi", 5, flipped},
		{"short load", 6, checkRows()},
	}
	for _, tc := range cases {
		p := &ProbTable{Name: "v"}
		p.SetLoader(tc.n, loaderOf(tc.rows))
		err := p.RangeCols(0, 10, func([]TimeGroup, Cols) error { return nil })
		if !errors.Is(err, ErrInvariant) {
			t.Fatalf("%s: RangeCols = %v, want ErrInvariant", tc.name, err)
		}
		if err := p.LoadErr(); !errors.Is(err, ErrInvariant) {
			t.Fatalf("%s: LoadErr = %v, want ErrInvariant", tc.name, err)
		}
		if err := p.AppendRows(checkRows()[:1]); !errors.Is(err, ErrInvariant) {
			t.Fatalf("%s: AppendRows after a failed load = %v, want ErrInvariant", tc.name, err)
		}
		if got := p.NumRows(); got != tc.n {
			t.Fatalf("%s: NumRows = %d, want %d", tc.name, got, tc.n)
		}
		if rows := p.SnapshotRows(); len(rows) != 0 {
			t.Fatalf("%s: a failed load serves %d rows", tc.name, len(rows))
		}
	}
}

// TestIndexFromZeroExactSize pins the bulk build: moving construction-input
// Rows into an empty table allocates the columns and the group index at
// their final size, with no regrowth slack.
func TestIndexFromZeroExactSize(t *testing.T) {
	rows := checkRows()
	p := &ProbTable{Name: "v", Rows: rows}
	if n := p.NumTimes(); n != 3 {
		t.Fatalf("NumTimes = %d, want 3", n)
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if cap(p.blk.Groups) != 3 {
		t.Errorf("groups cap %d, want 3", cap(p.blk.Groups))
	}
	for i, c := range []int{cap(p.blk.Lambda), cap(p.blk.Lo), cap(p.blk.Hi), cap(p.blk.Prob)} {
		if c != len(rows) {
			t.Errorf("column %d cap %d, want %d", i, c, len(rows))
		}
	}
}

// residentBytes is what a table keeps resident for its rows: the columns
// and the group index, counted by cap (or by len).
func residentBytes(p *ProbTable, byCap bool) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	size := func(n, c int) int {
		if byCap {
			return c
		}
		return n
	}
	b := &p.blk
	return 4*size(len(b.Lambda), cap(b.Lambda)) +
		8*(size(len(b.Lo), cap(b.Lo))+size(len(b.Hi), cap(b.Hi))+size(len(b.Prob), cap(b.Prob))) +
		24*size(len(b.Groups), cap(b.Groups))
}

// TestResidentBytesPerRow pins the one resident representation: a view
// stored in bulk keeps exactly 28 bytes per row plus 24 per tuple, a view
// grown by AppendRows 28 bytes per row, and no table keeps its
// construction-input Rows once stored.
func TestResidentBytesPerRow(t *testing.T) {
	const tuples, perTuple = 1000, 7
	var rows []view.Row
	for tt := 0; tt < tuples; tt++ {
		for l := 0; l < perTuple; l++ {
			rows = append(rows, view.Row{T: int64(tt), Lambda: l - perTuple/2, Lo: float64(l), Hi: float64(l) + 1, Prob: 1.0 / perTuple})
		}
	}
	n := len(rows)
	db := NewDB()
	bulk := &ProbTable{Name: "bulk", Rows: rows}
	if err := db.StoreView(bulk); err != nil {
		t.Fatal(err)
	}
	bulk.mu.RLock()
	left := bulk.Rows
	bulk.mu.RUnlock()
	if left != nil {
		t.Fatal("StoreView left the construction-input Rows set")
	}
	if got, want := residentBytes(bulk, true), 28*n+24*tuples; got != want {
		t.Fatalf("bulk-stored view keeps %d bytes, want 28*%d + 24*%d = %d", got, n, tuples, want)
	}

	grown := &ProbTable{Name: "grown"}
	if err := db.StoreView(grown); err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < tuples; tt++ {
		if err := grown.AppendRows(rows[tt*perTuple : (tt+1)*perTuple]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := residentBytes(grown, false)-24*tuples, 28*n; got != want {
		t.Fatalf("appended view keeps %d bytes of columns, want 28*%d = %d", got, n, want)
	}
}

// TestCaptureSharesRowPrefix pins copy-free checkpoint capture: the
// captured suffix shares the table's own columns, and stays intact while
// later appends grow the table past it. The captured group entries are a
// copy, rebased to the suffix and clipped where the suffix starts inside
// a group.
func TestCaptureSharesRowPrefix(t *testing.T) {
	p := &ProbTable{Name: "v"}
	if err := p.AppendRows(checkRows()); err != nil {
		t.Fatal(err)
	}
	st := p.captureState(1)
	b := st.Suffix
	if st.From != 1 || st.Total != 5 || b.Len() != 4 || cap(b.Lo) != 4 {
		t.Fatalf("capture from=%d total=%d rows=%d cap=%d", st.From, st.Total, b.Len(), cap(b.Lo))
	}
	if &b.Lo[0] != &p.blk.Lo[1] || &b.Prob[0] != &p.blk.Prob[1] || &b.Lambda[0] != &p.blk.Lambda[1] {
		t.Fatal("capture copied the columns instead of sharing them")
	}
	wantGroups := []TimeGroup{{T: 1, Off: 0, Len: 1}, {T: 2, Off: 1, Len: 1}, {T: 5, Off: 2, Len: 2}}
	if len(b.Groups) != len(wantGroups) {
		t.Fatalf("captured groups %+v, want %+v", b.Groups, wantGroups)
	}
	for i := range wantGroups {
		if b.Groups[i] != wantGroups[i] {
			t.Fatalf("captured groups %+v, want %+v", b.Groups, wantGroups)
		}
	}
	want := b.rows(b.Groups)
	// The first append extends the captured last group in the table.
	for i := 0; i < 50; i++ {
		if err := p.AppendRows([]view.Row{{T: int64(5 + i), Lo: 0, Hi: 1, Prob: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	got := b.rows(b.Groups)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("captured row %d changed under later appends: %+v, want %+v", i, got[i], want[i])
		}
	}
}
