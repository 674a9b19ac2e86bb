package durable

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal"
)

// logBytes frames records into the bytes of a WAL file.
func logBytes(recs ...[]byte) []byte {
	var out []byte
	for _, r := range recs {
		out = append(out, wal.Frame(r)...)
	}
	return out
}

// rawRecord lays payload out as a record, frame header reserved.
func rawRecord(payload ...byte) []byte {
	return append(make([]byte, wal.HeaderBytes), payload...)
}

// encodeLegacyStoreView writes the single-record view of earlier versions:
// the view header fields without a row count, then every row.
func encodeLegacyStoreView(meta storage.ViewMeta, rows []view.Row) []byte {
	dst := rawRecord(recStoreView)
	dst = appendStr(dst, meta.Name)
	dst = appendStr(dst, meta.Source)
	dst = appendStr(dst, meta.MetricName)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(meta.Omega.Delta))
	dst = binary.AppendVarint(dst, int64(meta.Omega.N))
	return appendRowBatch(dst, rows)
}

// viewRecords returns a private copy of every record encodeView emits.
func viewRecords(t testing.TB, meta storage.ViewMeta, rows []view.Row) [][]byte {
	t.Helper()
	var b storage.Block
	if err := b.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	if err := encodeView(meta, b, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// withViewChunkBytes shrinks the view record bound for one test, so the
// multi-record path runs on a few hundred rows.
func withViewChunkBytes(t testing.TB, n int) {
	t.Helper()
	old := viewChunkBytes
	viewChunkBytes = n
	t.Cleanup(func() { viewChunkBytes = old })
}

// seqRows returns n rows over n/3 timestamps, lambdas spanning one- and
// two-byte varints.
func seqRows(n int) []view.Row {
	rows := make([]view.Row, n)
	for i := range rows {
		lo := float64(i) / 4
		rows[i] = view.Row{T: int64(1 + i/3), Lambda: i%3*70 - 70, Lo: lo, Hi: lo + 0.25, Prob: 0.3}
	}
	return rows
}

var testMeta = storage.ViewMeta{Name: "pv", Source: "raw", MetricName: "m", Omega: view.Omega{Delta: 0.5, N: 2}}

// TestEncodersExactSize pins the encoders' exact sizing: every record is
// allocated at its final length, frame header included, and decodes back
// to what was encoded.
func TestEncodersExactSize(t *testing.T) {
	pts := []timeseries.Point{{T: 1, V: 2}, {T: 300, V: -1}}
	rows := seqRows(7)
	cases := []struct {
		rec  []byte
		want record
	}{
		{encodeCreateRaw("raw", "t", "r", pts), record{kind: recCreateRaw, name: "raw", timeCol: "t", valueCol: "r", pts: pts}},
		{encodeAppendRaw("raw", pts[1]), record{kind: recAppendRaw, name: "raw", pt: pts[1]}},
		{encodeAppendRows("pv", 300, rows), record{kind: recAppendRows, name: "pv", prior: 300, rows: rows}},
		{encodeStep("raw", pts[0], "pv", rows), record{kind: recStep, source: "raw", pt: pts[0], viewName: "pv", rows: rows}},
		{encodeDrop("pv"), record{kind: recDrop, name: "pv"}},
		{encodeReset(), record{kind: recReset}},
	}
	for _, tc := range cases {
		if len(tc.rec) != cap(tc.rec) {
			t.Errorf("kind %d: record len %d, cap %d: not exactly sized", tc.want.kind, len(tc.rec), cap(tc.rec))
		}
		got, err := decodeRecord(tc.rec[wal.HeaderBytes:])
		if err != nil {
			t.Fatalf("kind %d: %v", tc.want.kind, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("kind %d: decoded %+v, want %+v", tc.want.kind, got, tc.want)
		}
	}
}

// TestEncodeViewChunks checks the stored-view record sequence: a header
// with the total row count, continuations in order, every payload within
// the bound, and the rows reassembling exactly.
func TestEncodeViewChunks(t *testing.T) {
	rows := seqRows(300)
	for _, bound := range []int{1 << 20, 4096, 256, 1} {
		withViewChunkBytes(t, bound)
		recs := viewRecords(t, testMeta, rows)
		var got []view.Row
		for i, rec := range recs {
			r, err := decodeRecord(rec[wal.HeaderBytes:])
			if err != nil {
				t.Fatalf("bound %d, record %d: %v", bound, i, err)
			}
			wantKind := recViewRows
			if i == 0 {
				wantKind = recViewBegin
				if r.total != len(rows) || r.name != testMeta.Name || r.omega != testMeta.Omega {
					t.Fatalf("bound %d: header %+v", bound, r)
				}
			}
			if r.kind != wantKind {
				t.Fatalf("bound %d, record %d: kind %d, want %d", bound, i, r.kind, wantKind)
			}
			if len(r.rows) == 0 {
				t.Fatalf("bound %d, record %d carries no rows", bound, i)
			}
			if len(r.rows) > 1 && len(rec)-wal.HeaderBytes > bound {
				t.Fatalf("bound %d, record %d: %d-byte payload", bound, i, len(rec)-wal.HeaderBytes)
			}
			got = append(got, r.rows...)
		}
		if !reflect.DeepEqual(got, rows) {
			t.Fatalf("bound %d: rows do not reassemble", bound)
		}
		if bound == 1<<20 && len(recs) != 1 {
			t.Fatalf("%d records for a view under the bound, want 1", len(recs))
		}
		if bound == 256 && len(recs) < 30 {
			t.Fatalf("only %d records at a 256-byte bound", len(recs))
		}
	}
}

// TestEncodeViewEmpty logs an empty view as one header record.
func TestEncodeViewEmpty(t *testing.T) {
	recs := viewRecords(t, testMeta, nil)
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	r, err := decodeRecord(recs[0][wal.HeaderBytes:])
	if err != nil || r.kind != recViewBegin || r.total != 0 || len(r.rows) != 0 {
		t.Fatalf("header %+v, err %v", r, err)
	}
}
