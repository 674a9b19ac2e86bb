package storage

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/view"
)

// Tests for the column store: the columns and the group index must hold
// exactly the rows put in through every path that fills a table — online
// appends, construction-input Rows, lazy loads — and the two column
// iterators must hand out spans consistent with the row accessors.

// checkColumnsHoldRows walks the whole table through RangeCols and
// verifies every column entry, and the group that gives it its
// timestamp, against want.
func checkColumnsHoldRows(t *testing.T, p *ProbTable, want []view.Row) {
	t.Helper()
	var minT, maxT int64 = -1 << 62, 1 << 62
	err := p.RangeCols(minT, maxT, func(groups []TimeGroup, c Cols) error {
		if len(c.Lambda) != len(want) || len(c.Lo) != len(want) || len(c.Hi) != len(want) || len(c.Prob) != len(want) {
			t.Fatalf("column lengths %d/%d/%d/%d, want %d rows",
				len(c.Lambda), len(c.Lo), len(c.Hi), len(c.Prob), len(want))
		}
		n := 0
		for _, g := range groups {
			for i := g.Off; i < g.Off+g.Len; i++ {
				r := want[i]
				if g.T != r.T || int(c.Lambda[i]) != r.Lambda || c.Lo[i] != r.Lo || c.Hi[i] != r.Hi || c.Prob[i] != r.Prob {
					t.Fatalf("row %d = (t=%d, %d, %v, %v, %v), want %+v",
						i, g.T, c.Lambda[i], c.Lo[i], c.Hi[i], c.Prob[i], r)
				}
			}
			n += g.Len
		}
		if n != len(want) {
			t.Fatalf("groups cover %d rows, want %d", n, len(want))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// randomRows builds tuples of one to four rows whose probability mass
// stays at most 1, with the occasional zero-width point mass.
func randomRows(rng *rand.Rand, tuples int) []view.Row {
	var rows []view.Row
	t := int64(0)
	for i := 0; i < tuples; i++ {
		t += 1 + int64(rng.Intn(3))
		n := 1 + rng.Intn(4)
		for l := 0; l < n; l++ {
			lo := rng.Float64() * 10
			hi := lo + rng.Float64()
			if rng.Intn(6) == 0 {
				hi = lo // zero-width point mass
			}
			rows = append(rows, view.Row{T: t, Lambda: l - n/2, Lo: lo, Hi: hi, Prob: rng.Float64() / float64(n)})
		}
	}
	return rows
}

// loaderOf returns a lazy loader that appends a copy of rows.
func loaderOf(rows []view.Row) RowsLoader {
	return func(dst *Block) error { return dst.AppendRows(rows) }
}

func TestColumnsMirrorRowsIncrementalAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := &ProbTable{Name: "pv"}
	var all []view.Row
	for batch := 0; batch < 20; batch++ {
		rows := randomRows(rng, 1+rng.Intn(5))
		// Shift each batch past the previous one to keep timestamps ascending.
		var last int64
		if lt, ok := p.LastTime(); ok {
			last = lt
		}
		for i := range rows {
			rows[i].T += last
		}
		if err := p.AppendRows(rows); err != nil {
			t.Fatal(err)
		}
		all = append(all, rows...)
		checkColumnsHoldRows(t, p, all)
	}
}

// TestColumnsAfterDirectAssignmentAndReplacement covers construction-input
// Rows, moved into the columns on first access, and the wholesale
// replacement of a view, which is a new table stored under the same name.
func TestColumnsAfterDirectAssignmentAndReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := randomRows(rng, 10)
	p := &ProbTable{Name: "pv", Rows: rows}
	checkColumnsHoldRows(t, p, rows)
	if p.Rows != nil {
		t.Fatal("first access left the construction-input Rows set")
	}

	db := NewDB()
	if err := db.StoreView(p); err != nil {
		t.Fatal(err)
	}
	repl := randomRows(rng, 7)
	if err := db.StoreView(&ProbTable{Name: "pv", Rows: repl}); err != nil {
		t.Fatal(err)
	}
	got, err := db.View("pv")
	if err != nil {
		t.Fatal(err)
	}
	checkColumnsHoldRows(t, got, repl)
	checkColumnsHoldRows(t, p, rows) // the replaced table is untouched
}

func TestColumnsAfterLazyLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := randomRows(rng, 8)
	p := &ProbTable{Name: "pv"}
	p.SetLoader(len(rows), loaderOf(rows))
	if got := p.NumRows(); got != len(rows) {
		t.Fatalf("NumRows before load = %d, want %d", got, len(rows))
	}
	checkColumnsHoldRows(t, p, rows)

	// A failed load surfaces through both column iterators.
	bad := &ProbTable{Name: "pv2"}
	wantErr := errors.New("segment gone")
	bad.SetLoader(3, func(*Block) error { return wantErr })
	err := bad.RangeCols(0, 100, func([]TimeGroup, Cols) error { return nil })
	if !errors.Is(err, wantErr) {
		t.Fatalf("RangeCols on failed load: %v", err)
	}
	err = bad.ForEachGroupCols(0, 100, func(GroupCols) error { return nil })
	if !errors.Is(err, wantErr) {
		t.Fatalf("ForEachGroupCols on failed load: %v", err)
	}
}

// TestForEachGroupColsMatchesRowsAt pins the per-group column iterator
// against the row accessors: same groups, and per group the column spans
// hold the rows RowsAt returns.
func TestForEachGroupColsMatchesRowsAt(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := &ProbTable{Name: "pv", Rows: randomRows(rng, 25)}
	times := p.Times()
	spans := map[int64][]view.Row{}
	if err := p.ForEachGroupCols(0, 1<<62, func(g GroupCols) error {
		if len(g.Lambda) != len(g.Prob) || len(g.Lo) != len(g.Prob) || len(g.Hi) != len(g.Prob) {
			t.Fatalf("t=%d: span lengths diverge", g.T)
		}
		for i := range g.Prob {
			spans[g.T] = append(spans[g.T], view.Row{T: g.T, Lambda: int(g.Lambda[i]), Lo: g.Lo[i], Hi: g.Hi[i], Prob: g.Prob[i]})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(spans) != len(times) {
		t.Fatalf("visited %d groups, want %d", len(spans), len(times))
	}
	for _, tt := range times {
		got, want := spans[tt], p.RowsAt(tt)
		if len(got) != len(want) {
			t.Fatalf("t=%d: %d rows, RowsAt has %d", tt, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("t=%d row %d: columns %+v, RowsAt has %+v", tt, i, got[i], want[i])
			}
		}
	}

	// Sub-range iteration agrees with GroupsRange.
	mid := times[len(times)/2]
	var got []int64
	if err := p.ForEachGroupCols(mid, 1<<62, func(g GroupCols) error {
		got = append(got, g.T)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := p.GroupsRange(mid, 1<<62)
	if len(got) != len(want) {
		t.Fatalf("sub-range visited %d groups, want %d", len(got), len(want))
	}
	for i, g := range want {
		if got[i] != g.T {
			t.Fatalf("sub-range group %d: t=%d, want %d", i, got[i], g.T)
		}
	}
}

// TestColumnsUnderConcurrentAppend hammers the column readers while a
// writer appends; under -race this pins the locking, and every observed
// group must be whole and hold the values appended for it.
func TestColumnsUnderConcurrentAppend(t *testing.T) {
	p := &ProbTable{Name: "pv"}
	const tuples = 400
	var all []view.Row
	for i := 1; i <= tuples; i++ {
		all = append(all,
			view.Row{T: int64(i), Lambda: -1, Lo: float64(i), Hi: float64(i) + 1, Prob: 0.5},
			view.Row{T: int64(i), Lambda: 0, Lo: float64(i) + 1, Hi: float64(i) + 2, Prob: 0.5})
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < tuples; i++ {
			p.AppendRows(all[2*i : 2*i+2])
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := p.ForEachGroupCols(0, tuples, func(g GroupCols) error {
					if len(g.Lo) != 2 || len(g.Lambda) != 2 {
						t.Errorf("t=%d: torn group of %d rows", g.T, len(g.Lo))
						return nil
					}
					if g.Lo[0] != float64(g.T) || g.Prob[0] != 0.5 || g.Lambda[1] != 0 {
						t.Errorf("t=%d: columns diverge from the appended rows", g.T)
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkColumnsHoldRows(t, p, all)
}
