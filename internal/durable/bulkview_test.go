package durable

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// walPayloads returns the payload of every record in the store's WAL
// files, in order.
func walPayloads(t *testing.T, fs *faultfs.FS) [][]byte {
	t.Helper()
	seqs, err := wal.List(fs, "data/wal")
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, seq := range seqs {
		data, ok := fs.ReadBack("data/wal/" + wal.FileName(seq))
		if !ok {
			t.Fatalf("missing %s", wal.FileName(seq))
		}
		if _, _, err := wal.ReadRecords(bytes.NewReader(data), func(p []byte) error {
			out = append(out, append([]byte(nil), p...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// viewRowsOf returns a recovered view's rows after checking its
// invariants.
func viewRowsOf(t *testing.T, st *Store, name string) []view.Row {
	t.Helper()
	p, err := st.DB().View(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	return p.SnapshotRows()
}

// TestChunkedViewReplay stores a view that logs as many records, then
// recovers it twice: from the WAL alone (a crash before any checkpoint)
// and from the segments a checkpoint wrote. Both must equal the stored
// rows exactly.
func TestChunkedViewReplay(t *testing.T) {
	const bound = 512
	withViewChunkBytes(t, bound)
	rows := seqRows(300)
	fs := faultfs.New()
	st := openStore(t, fs, Options{CheckpointBytes: -1})
	p := &storage.ProbTable{Name: "pv", Source: "raw", MetricName: "m", Omega: view.Omega{Delta: 0.5, N: 2},
		Rows: append([]view.Row(nil), rows...)}
	if err := st.DB().StoreView(p); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	payloads := walPayloads(t, fs)
	if len(payloads) < 10 {
		t.Fatalf("view logged as %d records, want a long multi-record sequence", len(payloads))
	}
	for i, pl := range payloads {
		if len(pl) > bound {
			t.Fatalf("record %d has a %d-byte payload, bound %d", i, len(pl), bound)
		}
	}

	st2 := openStore(t, fs.CrashImage(), Options{CheckpointBytes: -1})
	if got := viewRowsOf(t, st2, "pv"); !reflect.DeepEqual(got, rows) {
		t.Fatal("view replayed from the WAL differs from the stored rows")
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st3 := openStore(t, fs, Options{CheckpointBytes: -1})
	defer st3.Close()
	if got := viewRowsOf(t, st3, "pv"); !reflect.DeepEqual(got, rows) {
		t.Fatal("view reopened from segments differs from the stored rows")
	}
}

// TestLegacyStoreViewRecordReplays replays the single-record view that
// earlier versions wrote, followed by an append to it: the one replay
// path reads it as a header holding every row.
func TestLegacyStoreViewRecordReplays(t *testing.T) {
	rows := seqRows(9)
	more := []view.Row{{T: 4, Lambda: 0, Lo: 1, Hi: 2, Prob: 0.5}}
	fs := faultfs.New()
	fs.MkdirAll("data/wal")
	fs.WriteExisting("data/wal/"+wal.FileName(1), logBytes(
		encodeCreateRaw("raw", "t", "r", nil),
		encodeLegacyStoreView(testMeta, rows),
		encodeAppendRows("pv", len(rows), more),
	))
	st := openStore(t, fs, Options{CheckpointBytes: -1})
	defer st.Close()
	p, err := st.DB().View("pv")
	if err != nil {
		t.Fatal(err)
	}
	if p.Meta() != testMeta {
		t.Fatalf("meta %+v, want %+v", p.Meta(), testMeta)
	}
	if got, want := viewRowsOf(t, st, "pv"), append(append([]view.Row(nil), rows...), more...); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows %+v, want %+v", got, want)
	}
}

// TestTruncatedViewSequenceKeepsOldView cuts a WAL holding a view and its
// multi-record replacement at every record boundary and in the middle of
// every record. Recovery must yield the old view whole until the last
// record of the replacement is intact, then the new view whole — never a
// prefix of the replacement.
func TestTruncatedViewSequenceKeepsOldView(t *testing.T) {
	withViewChunkBytes(t, 256)
	oldRows, newRows := seqRows(6), seqRows(60)
	prefix := logBytes(encodeCreateRaw("raw", "t", "r", nil))
	prefix = append(prefix, logBytes(viewRecords(t, testMeta, oldRows)...)...)
	recs := viewRecords(t, testMeta, newRows)
	if len(recs) < 5 {
		t.Fatalf("replacement logs as %d records", len(recs))
	}
	var cuts []int
	end := len(prefix)
	for _, r := range recs {
		cuts = append(cuts, end, end+len(r)/2)
		end += len(r)
	}
	full := append(append([]byte(nil), prefix...), logBytes(recs...)...)
	cuts = append(cuts, len(full))
	for _, cut := range cuts {
		fs := faultfs.New()
		fs.MkdirAll("data/wal")
		fs.WriteExisting("data/wal/"+wal.FileName(1), full[:cut])
		st := openStore(t, fs, Options{CheckpointBytes: -1})
		want := oldRows
		if cut == len(full) {
			want = newRows
		}
		if got := viewRowsOf(t, st, "pv"); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at byte %d of %d: recovered %d rows, want %d", cut, len(full), len(got), len(want))
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAbandonedViewSequenceThenLaterSessions replays an unfinished view
// sequence that ends cleanly — the writer crashed between two records —
// followed by a later session's WAL file: an append through a table
// handle, a complete multi-record view and a raw append. The unfinished
// view is dropped and everything after it applies.
func TestAbandonedViewSequenceThenLaterSessions(t *testing.T) {
	withViewChunkBytes(t, 256)
	cutRecs := viewRecords(t, storage.ViewMeta{Name: "lost", Omega: view.Omega{Delta: 0.5, N: 2}}, seqRows(60))
	fs := faultfs.New()
	fs.MkdirAll("data/wal")
	fs.WriteExisting("data/wal/"+wal.FileName(1), append(logBytes(
		encodeCreateRaw("raw", "t", "r", nil),
		encodeLegacyStoreView(testMeta, seqRows(3)),
	), logBytes(cutRecs[:len(cutRecs)-1]...)...))
	later := append(logBytes(encodeAppendRows("pv", 3, []view.Row{{T: 2, Lambda: 9, Lo: 0, Hi: 1, Prob: 0.1}})),
		logBytes(viewRecords(t, storage.ViewMeta{Name: "kept", Omega: view.Omega{Delta: 0.5, N: 2}}, seqRows(60))...)...)
	later = append(later, logBytes(encodeAppendRaw("raw", timeseries.Point{T: 1, V: 5}))...)
	fs.WriteExisting("data/wal/"+wal.FileName(2), later)

	st := openStore(t, fs, Options{CheckpointBytes: -1})
	defer st.Close()
	if _, err := st.DB().View("lost"); err == nil {
		t.Fatal("unfinished view recovered")
	}
	if got := viewRowsOf(t, st, "kept"); !reflect.DeepEqual(got, seqRows(60)) {
		t.Fatal("later complete view not recovered whole")
	}
	if got := viewRowsOf(t, st, "pv"); len(got) != 4 {
		t.Fatalf("pv holds %d rows, want 3 plus the appended one", len(got))
	}
	if n, err := st.DB().RawLen("raw"); err != nil || n != 1 {
		t.Fatalf("raw holds %d points (%v), want 1", n, err)
	}
}

// TestChunkedViewInterleavedAppend replays a view sequence with an append
// to another view between two of its records — the one record that can
// land there, since appends through a table handle log without the
// catalog lock. The append applies in place; the view still assembles.
func TestChunkedViewInterleavedAppend(t *testing.T) {
	withViewChunkBytes(t, 256)
	recs := viewRecords(t, storage.ViewMeta{Name: "bulk", Omega: view.Omega{Delta: 0.5, N: 2}}, seqRows(60))
	fs := faultfs.New()
	fs.MkdirAll("data/wal")
	data := logBytes(encodeCreateRaw("raw", "t", "r", nil), encodeLegacyStoreView(testMeta, seqRows(3)))
	data = append(data, logBytes(recs[:2]...)...)
	data = append(data, logBytes(encodeAppendRows("pv", 3, []view.Row{{T: 2, Lambda: 9, Lo: 0, Hi: 1, Prob: 0.1}}))...)
	data = append(data, logBytes(recs[2:]...)...)
	fs.WriteExisting("data/wal/"+wal.FileName(1), data)

	st := openStore(t, fs, Options{CheckpointBytes: -1})
	defer st.Close()
	if got := viewRowsOf(t, st, "bulk"); !reflect.DeepEqual(got, seqRows(60)) {
		t.Fatal("interleaved view not recovered whole")
	}
	if got := viewRowsOf(t, st, "pv"); len(got) != 4 {
		t.Fatalf("pv holds %d rows, want 4", len(got))
	}
}
