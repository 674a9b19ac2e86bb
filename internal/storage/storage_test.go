package storage

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/timeseries"
	"repro/internal/view"
)

func newTestSeries(t *testing.T, n int) *timeseries.Series {
	t.Helper()
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(i) * 1.5
	}
	return timeseries.FromValues(vs)
}

func TestCreateAndFetchRawTable(t *testing.T) {
	db := NewDB()
	s := newTestSeries(t, 10)
	tab, err := db.CreateRawTable("raw_values", "t", "r", s)
	if err != nil {
		t.Fatal(err)
	}
	if tab.TimeCol != "t" || tab.ValueCol != "r" {
		t.Errorf("columns = %q,%q", tab.TimeCol, tab.ValueCol)
	}
	got, err := db.RawTable("raw_values")
	if err != nil {
		t.Fatal(err)
	}
	if got.Series.Len() != 10 {
		t.Errorf("series length %d", got.Series.Len())
	}
	if _, err := db.RawTable("missing"); !errors.Is(err, ErrNotFound) {
		t.Error("missing table found")
	}
}

func TestCreateRawTableDefaultsAndValidation(t *testing.T) {
	db := NewDB()
	s := newTestSeries(t, 3)
	tab, err := db.CreateRawTable("defaults", "", "", s)
	if err != nil {
		t.Fatal(err)
	}
	if tab.TimeCol != "t" || tab.ValueCol != "r" {
		t.Errorf("default columns = %q,%q", tab.TimeCol, tab.ValueCol)
	}
	if _, err := db.CreateRawTable("", "t", "r", s); !errors.Is(err, ErrBadName) {
		t.Error("empty name accepted")
	}
	if _, err := db.CreateRawTable("bad name", "t", "r", s); !errors.Is(err, ErrBadName) {
		t.Error("name with space accepted")
	}
	if _, err := db.CreateRawTable("nil_series", "t", "r", nil); !errors.Is(err, ErrBadSchema) {
		t.Error("nil series accepted")
	}
	if _, err := db.CreateRawTable("defaults", "t", "r", s); !errors.Is(err, ErrExists) {
		t.Error("duplicate name accepted")
	}
	if _, err := db.CreateRawTable("badcol", "t!", "r", s); !errors.Is(err, ErrBadName) {
		t.Error("bad column name accepted")
	}
}

func TestAppendRaw(t *testing.T) {
	db := NewDB()
	s := newTestSeries(t, 3)
	if _, err := db.CreateRawTable("stream", "t", "r", s); err != nil {
		t.Fatal(err)
	}
	if err := db.AppendRaw("stream", timeseries.Point{T: 100, V: 9}); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.RawTable("stream")
	if tab.Series.Len() != 4 {
		t.Errorf("length after append = %d", tab.Series.Len())
	}
	if err := db.AppendRaw("missing", timeseries.Point{T: 1, V: 1}); !errors.Is(err, ErrNotFound) {
		t.Error("append to missing table accepted")
	}
	// Appending a stale timestamp must propagate the series error.
	if err := db.AppendRaw("stream", timeseries.Point{T: 50, V: 1}); err == nil {
		t.Error("stale timestamp accepted")
	}
	// A non-finite value is refused before it reaches the table.
	if err := db.AppendRaw("stream", timeseries.Point{T: 101, V: math.NaN()}); !errors.Is(err, timeseries.ErrNonFinite) {
		t.Errorf("NaN accepted: %v", err)
	}
	if tab.Series.Len() != 4 {
		t.Errorf("length after rejected append = %d", tab.Series.Len())
	}
}

func makeProbTable(name string) *ProbTable {
	return &ProbTable{
		Name:       name,
		Source:     "raw_values",
		MetricName: "ARMA-GARCH",
		Omega:      view.Omega{Delta: 1, N: 2},
		Rows: []view.Row{
			{T: 1, Lambda: -1, Lo: 0, Hi: 1, Prob: 0.4},
			{T: 1, Lambda: 0, Lo: 1, Hi: 2, Prob: 0.5},
			{T: 2, Lambda: -1, Lo: 0, Hi: 1, Prob: 0.3},
			{T: 2, Lambda: 0, Lo: 1, Hi: 2, Prob: 0.6},
		},
	}
}

func TestStoreAndFetchView(t *testing.T) {
	db := NewDB()
	if err := db.StoreView(makeProbTable("pv")); err != nil {
		t.Fatal(err)
	}
	got, err := db.View("pv")
	if err != nil {
		t.Fatal(err)
	}
	if got.MetricName != "ARMA-GARCH" || got.NumRows() != 4 {
		t.Errorf("view %q: metric %q, %d rows", got.Name, got.MetricName, got.NumRows())
	}
	if _, err := db.View("missing"); !errors.Is(err, ErrNotFound) {
		t.Error("missing view found")
	}
	// Replacing is allowed.
	if err := db.StoreView(makeProbTable("pv")); err != nil {
		t.Errorf("replace failed: %v", err)
	}
	if err := db.StoreView(nil); !errors.Is(err, ErrBadSchema) {
		t.Error("nil view accepted")
	}
}

func TestViewRawNameCollision(t *testing.T) {
	db := NewDB()
	s := newTestSeries(t, 3)
	if _, err := db.CreateRawTable("shared", "t", "r", s); err != nil {
		t.Fatal(err)
	}
	if err := db.StoreView(makeProbTable("shared")); !errors.Is(err, ErrExists) {
		t.Error("view name colliding with raw table accepted")
	}
	if err := db.StoreView(makeProbTable("pv")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRawTable("pv", "t", "r", s); !errors.Is(err, ErrExists) {
		t.Error("raw name colliding with view accepted")
	}
}

func TestProbTableRowsAtAndTimes(t *testing.T) {
	p := makeProbTable("pv")
	rows := p.RowsAt(2)
	if len(rows) != 2 || rows[0].Prob != 0.3 {
		t.Errorf("RowsAt(2) = %+v", rows)
	}
	if p.RowsAt(99) != nil {
		t.Error("RowsAt(absent) should be nil")
	}
	times := p.Times()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Errorf("Times = %v", times)
	}
}

func TestDrop(t *testing.T) {
	db := NewDB()
	s := newTestSeries(t, 3)
	_, _ = db.CreateRawTable("raw1", "t", "r", s)
	_ = db.StoreView(makeProbTable("pv1"))
	if err := db.Drop("raw1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("pv1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("gone"); !errors.Is(err, ErrNotFound) {
		t.Error("dropping missing table accepted")
	}
	if len(db.List()) != 0 {
		t.Error("catalog not empty after drops")
	}
}

func TestList(t *testing.T) {
	db := NewDB()
	s := newTestSeries(t, 5)
	_, _ = db.CreateRawTable("zebra", "t", "r", s)
	_, _ = db.CreateRawTable("alpha", "t", "r", s)
	_ = db.StoreView(makeProbTable("middle"))
	infos := db.List()
	if len(infos) != 3 {
		t.Fatalf("List = %d entries", len(infos))
	}
	if infos[0].Name != "alpha" || infos[1].Name != "middle" || infos[2].Name != "zebra" {
		t.Errorf("order: %v", infos)
	}
	if infos[0].Kind != "raw" || infos[1].Kind != "view" {
		t.Error("kinds wrong")
	}
	if infos[0].Rows != 5 || infos[1].Rows != 4 {
		t.Error("row counts wrong")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := NewDB()
	s := newTestSeries(t, 8)
	_, _ = db.CreateRawTable("raw_values", "time", "temp", s)
	_ = db.StoreView(makeProbTable("pv"))

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewDB()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	tab, err := restored.RawTable("raw_values")
	if err != nil {
		t.Fatal(err)
	}
	if tab.TimeCol != "time" || tab.ValueCol != "temp" || tab.Series.Len() != 8 {
		t.Errorf("restored raw table = %+v", tab)
	}
	pv, err := restored.View("pv")
	if err != nil {
		t.Fatal(err)
	}
	if pv.NumRows() != 4 || pv.Omega.Delta != 1 {
		t.Errorf("restored view: %d rows, omega %+v", pv.NumRows(), pv.Omega)
	}
}

// TestLoadParentWireShape pins gob compatibility: a catalog encoded by a
// writer whose view tables are plain structs carrying their rows in Rows
// (the shape Save has always written) still loads, and serves every row
// bit for bit.
func TestLoadParentWireShape(t *testing.T) {
	type wireView struct {
		Name       string
		Source     string
		MetricName string
		Omega      view.Omega
		Rows       []view.Row
	}
	type wireSnapshot struct {
		Raw  []rawSnapshot
		Prob []*wireView
	}
	rows := []view.Row{
		{T: -7, Lambda: -(1 << 31), Lo: -5e-324, Hi: 5e-324, Prob: 0.1},
		{T: -7, Lambda: 3, Lo: 1.0000000000000002, Hi: math.MaxFloat64, Prob: 0.3},
		{T: 1 << 40, Lambda: 1<<31 - 1, Lo: -2.5, Hi: -2.5, Prob: 1},
	}
	src := wireSnapshot{
		Raw:  []rawSnapshot{{Name: "raw", TimeCol: "t", ValueCol: "r", Points: []timeseries.Point{{T: 1, V: 2}}}},
		Prob: []*wireView{{Name: "pv", Source: "raw", MetricName: "m", Omega: view.Omega{Delta: 0.5, N: 3}, Rows: rows}},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&src); err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	if err := db.Load(&buf); err != nil {
		t.Fatal(err)
	}
	pv, err := db.View("pv")
	if err != nil {
		t.Fatal(err)
	}
	if pv.Meta() != (ViewMeta{Name: "pv", Source: "raw", MetricName: "m", Omega: view.Omega{Delta: 0.5, N: 3}}) {
		t.Fatalf("meta = %+v", pv.Meta())
	}
	got := pv.SnapshotRows()
	if len(got) != len(rows) {
		t.Fatalf("%d rows, want %d", len(got), len(rows))
	}
	for i, r := range rows {
		g := got[i]
		if g.T != r.T || g.Lambda != r.Lambda || math.Float64bits(g.Lo) != math.Float64bits(r.Lo) ||
			math.Float64bits(g.Hi) != math.Float64bits(r.Hi) || math.Float64bits(g.Prob) != math.Float64bits(r.Prob) {
			t.Fatalf("row %d = %+v, want %+v", i, g, r)
		}
	}
}

func TestLoadGarbage(t *testing.T) {
	db := NewDB()
	if err := db.Load(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := NewDB()
	s := newTestSeries(t, 3)
	_, _ = db.CreateRawTable("base", "t", "r", s)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_, _ = db.RawTable("base")
				_ = db.List()
				_ = db.StoreView(makeProbTable("pv"))
				_, _ = db.View("pv")
			}
		}(i)
	}
	wg.Wait()
	if _, err := db.View("pv"); err != nil {
		t.Error("view lost after concurrent writes")
	}
}
