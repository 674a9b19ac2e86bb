package durable

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/probdb"
	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal/faultfs"
)

// reopen checkpoints and closes st, then opens the store on fs again.
func reopen(t *testing.T, fs *faultfs.FS, st *Store) *Store {
	t.Helper()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return openStore(t, fs, Options{CheckpointBytes: -1})
}

// TestWideLambdaRejectedBeforeLogging pins the int32 Lambda column end to
// end: the WAL would log a lambda of 1<<40 intact, but a segment keeps 32
// bits of it, so a row that replayed unchanged from the log came back
// changed after a checkpoint. Every write path must reject such a row
// with ErrBadSchema before logging it, and the int32 extremes must
// survive a checkpoint and reopen bit for bit.
func TestWideLambdaRejectedBeforeLogging(t *testing.T) {
	fs := faultfs.New()
	st := openStore(t, fs, Options{CheckpointBytes: -1})
	db := st.DB()
	s0, err := timeseries.New([]timeseries.Point{{T: 1, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRawTable("sensor", "", "", s0); err != nil {
		t.Fatal(err)
	}
	edge := []view.Row{
		{T: 1, Lambda: math.MinInt32, Lo: 0, Hi: 1, Prob: 0.5},
		{T: 1, Lambda: math.MaxInt32, Lo: 1, Hi: 2, Prob: 0.5},
	}
	pv := &storage.ProbTable{Name: "pv", Source: "sensor", Rows: edge}
	if err := db.StoreView(pv); err != nil {
		t.Fatal(err)
	}
	wide := []view.Row{{T: 2, Lambda: 1 << 40, Lo: 0, Hi: 1, Prob: 1}}
	bulk := &storage.ProbTable{Name: "bulk", Source: "sensor", Rows: wide}
	if err := db.StoreView(bulk); !errors.Is(err, storage.ErrBadSchema) {
		t.Errorf("StoreView = %v, want ErrBadSchema", err)
	}
	if err := pv.AppendRows(wide); !errors.Is(err, storage.ErrBadSchema) {
		t.Errorf("AppendRows = %v, want ErrBadSchema", err)
	}
	if err := db.CommitStep("sensor", timeseries.Point{T: 2, V: 1}, pv, wide); !errors.Is(err, storage.ErrBadSchema) {
		t.Errorf("CommitStep = %v, want ErrBadSchema", err)
	}

	st = reopen(t, fs, st)
	defer st.Close()
	got, err := st.DB().View("pv")
	if err != nil {
		t.Fatal(err)
	}
	if rows := got.SnapshotRows(); !reflect.DeepEqual(rows, edge) {
		t.Fatalf("after checkpoint and reopen the view holds %+v, want %+v", rows, edge)
	}
	if _, err := st.DB().View("bulk"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("rejected view recovered: %v", err)
	}
	if n, err := st.DB().RawLen("sensor"); err != nil || n != 1 {
		t.Fatalf("raw table holds %d points (%v), want the rejected step's point absent", n, err)
	}
}

// TestSegmentLoadVerifiesView checkpoints a view holding a row with Lo
// above Hi next to a valid view, reopens, and queries both: the first
// load of the broken view reports ErrInvariant, stickily, while the valid
// view keeps serving, taking appends and checkpointing.
func TestSegmentLoadVerifiesView(t *testing.T) {
	fs := faultfs.New()
	st := openStore(t, fs, Options{CheckpointBytes: -1})
	db := st.DB()
	bad := &storage.ProbTable{Name: "bad", Rows: []view.Row{
		{T: 1, Lambda: 0, Lo: 0, Hi: 1, Prob: 0.5},
		{T: 2, Lambda: 0, Lo: 3, Hi: 2, Prob: 0.5},
	}}
	good := &storage.ProbTable{Name: "good", Rows: []view.Row{
		{T: 1, Lambda: 0, Lo: 0, Hi: 1, Prob: 0.5},
		{T: 2, Lambda: 0, Lo: 2, Hi: 3, Prob: 0.5},
	}}
	for _, p := range []*storage.ProbTable{bad, good} {
		if err := db.StoreView(p); err != nil {
			t.Fatal(err)
		}
	}

	st = reopen(t, fs, st)
	db = st.DB()
	badT, err := db.View("bad")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := probdb.ExpectedSeries(badT, 0, 10); !errors.Is(err, storage.ErrInvariant) {
			t.Fatalf("query %d on the broken view: %v, want ErrInvariant", i, err)
		}
	}
	if n := badT.NumRows(); n != 2 {
		t.Fatalf("broken view reports %d rows, want its durable 2", n)
	}
	goodT, err := db.View("good")
	if err != nil {
		t.Fatal(err)
	}
	series, err := probdb.ExpectedSeries(goodT, 0, 10)
	if err != nil || len(series) != 2 || series[1].Value != 2.5 {
		t.Fatalf("valid view serves %+v, %v", series, err)
	}
	if err := goodT.AppendRows([]view.Row{{T: 3, Lo: 4, Hi: 5, Prob: 1}}); err != nil {
		t.Fatal(err)
	}

	// A failed load leaves the view's segments in the manifest: the next
	// checkpoint carries them over and the store still reopens.
	st = reopen(t, fs, st)
	defer st.Close()
	goodT, err = st.DB().View("good")
	if err != nil {
		t.Fatal(err)
	}
	if n := goodT.NumRows(); n != 3 {
		t.Fatalf("valid view holds %d rows after the second reopen, want 3", n)
	}
	badT, err = st.DB().View("bad")
	if err != nil {
		t.Fatal(err)
	}
	if err := badT.Check(); !errors.Is(err, storage.ErrInvariant) {
		t.Fatalf("broken view after the second reopen: %v, want ErrInvariant", err)
	}
}
