package segment_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/segment"
	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal/faultfs"
)

func randomRows(rng *rand.Rand, tuples int) []view.Row {
	var rows []view.Row
	t := int64(0)
	for i := 0; i < tuples; i++ {
		t += 1 + int64(rng.Intn(3))
		n := 1 + rng.Intn(5)
		for l := 0; l < n; l++ {
			rows = append(rows, view.Row{
				T: t, Lambda: l - n/2,
				Lo: rng.NormFloat64(), Hi: rng.NormFloat64(), Prob: rng.Float64(),
			})
		}
	}
	return rows
}

// blockOf returns rows in the column layout WriteView takes.
func blockOf(tb testing.TB, rows []view.Row) storage.Block {
	tb.Helper()
	var b storage.Block
	if err := b.AppendRows(rows); err != nil {
		tb.Fatal(err)
	}
	return b
}

// viewRows reads the rows with timestamp in [tLo, tHi] back as view.Row
// values, nil when there are none.
func viewRows(r *segment.Reader, tLo, tHi int64) ([]view.Row, error) {
	var b storage.Block
	if err := r.ReadView(tLo, tHi, &b); err != nil || b.Len() == 0 {
		return nil, err
	}
	var out []view.Row
	for _, g := range b.Groups {
		for i := g.Off; i < g.Off+g.Len; i++ {
			out = append(out, view.Row{T: g.T, Lambda: int(b.Lambda[i]), Lo: b.Lo[i], Hi: b.Hi[i], Prob: b.Prob[i]})
		}
	}
	return out, nil
}

func TestViewSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fs := faultfs.New()
	meta := segment.ViewMeta{Name: "pv", Source: "raw", MetricName: "armagarch(1,0)", Delta: 0.5, N: 8}
	for trial := 0; trial < 25; trial++ {
		rows := randomRows(rng, rng.Intn(60))
		if err := segment.WriteView(fs, "seg/pv.seg", meta, blockOf(t, rows)); err != nil {
			t.Fatal(err)
		}
		r, err := segment.Open(fs, "seg/pv.seg")
		if err != nil {
			t.Fatal(err)
		}
		if r.Kind != segment.KindView || r.View != meta {
			t.Fatalf("meta round-trip: %+v", r.View)
		}
		if r.NumRows() != len(rows) {
			t.Fatalf("NumRows = %d, want %d", r.NumRows(), len(rows))
		}
		got, err := viewRows(r, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			if len(got) != 0 {
				t.Fatalf("empty segment returned %d rows", len(got))
			}
			continue
		}
		if !reflect.DeepEqual(got, rows) {
			t.Fatalf("trial %d: rows differ after round trip", trial)
		}
		// Range reads match the in-memory filter, at random bounds.
		maxT := rows[len(rows)-1].T
		for q := 0; q < 20; q++ {
			lo := int64(rng.Intn(int(maxT)+2)) - 1
			hi := lo + int64(rng.Intn(int(maxT)+2))
			var want []view.Row
			for _, row := range rows {
				if row.T >= lo && row.T <= hi {
					want = append(want, row)
				}
			}
			got, err := viewRows(r, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ViewRows(%d,%d): %d rows, want %d", lo, hi, len(got), len(want))
			}
		}
	}
}

func TestRawSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	fs := faultfs.New()
	meta := segment.RawMeta{Name: "raw", TimeCol: "t", ValueCol: "r"}
	// Spans multiple 512-point blocks to exercise chunked range reads.
	pts := make([]timeseries.Point, 1800)
	tt := int64(0)
	for i := range pts {
		tt += 1 + int64(rng.Intn(2))
		pts[i] = timeseries.Point{T: tt, V: rng.NormFloat64()}
	}
	if err := segment.WriteRaw(fs, "seg/raw.seg", meta, pts); err != nil {
		t.Fatal(err)
	}
	r, err := segment.Open(fs, "seg/raw.seg")
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != segment.KindRaw || r.Raw != meta {
		t.Fatalf("meta round-trip: %+v", r.Raw)
	}
	all, err := r.AllPoints()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, pts) {
		t.Fatalf("points differ after round trip: %d vs %d", len(all), len(pts))
	}
	for q := 0; q < 30; q++ {
		lo := int64(rng.Intn(int(tt) + 2))
		hi := lo + int64(rng.Intn(int(tt)+2))
		var want []timeseries.Point
		for _, p := range pts {
			if p.T >= lo && p.T <= hi {
				want = append(want, p)
			}
		}
		got, err := r.Points(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("Points(%d,%d): %d, want %d", lo, hi, len(got), len(want))
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	fs := faultfs.New()
	meta := segment.ViewMeta{Name: "pv", Delta: 1, N: 2}
	rows := randomRows(rand.New(rand.NewSource(13)), 30)
	if err := segment.WriteView(fs, "pv.seg", meta, blockOf(t, rows)); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadBack("pv.seg")
	// Flip one bit at every byte position; Open or the row read must
	// refuse (or, for bits in unread padding, still round-trip sane rows).
	for pos := 0; pos < len(data); pos += 7 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		fs.WriteExisting("mut.seg", mut)
		r, err := segment.Open(fs, "mut.seg")
		if err != nil {
			if !errors.Is(err, segment.ErrCorrupt) {
				t.Fatalf("pos %d: open error %v, want ErrCorrupt", pos, err)
			}
			continue
		}
		if _, err := viewRows(r, math.MinInt64, math.MaxInt64); err != nil && !errors.Is(err, segment.ErrCorrupt) {
			t.Fatalf("pos %d: read error %v, want ErrCorrupt", pos, err)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	fs := faultfs.New()
	meta := segment.ViewMeta{Name: "pv", Delta: 1, N: 2}
	rows := randomRows(rand.New(rand.NewSource(14)), 20)
	if err := segment.WriteView(fs, "pv.seg", meta, blockOf(t, rows)); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadBack("pv.seg")
	for cut := 0; cut < len(data); cut += 11 {
		fs.WriteExisting("cut.seg", data[:cut])
		r, err := segment.Open(fs, "cut.seg")
		if err != nil {
			continue // header refused: fine
		}
		if _, err := viewRows(r, math.MinInt64, math.MaxInt64); err == nil && cut < len(data) {
			t.Fatalf("cut at %d bytes read back without error", cut)
		}
	}
}

func TestSealLeavesNoTempOnFailure(t *testing.T) {
	fs := faultfs.New()
	meta := segment.ViewMeta{Name: "pv", Delta: 1, N: 2}
	rows := randomRows(rand.New(rand.NewSource(15)), 10)
	// Find how many fs ops a seal takes, then fail at each one.
	if err := segment.WriteView(fs, "probe.seg", meta, blockOf(t, rows)); err != nil {
		t.Fatal(err)
	}
	total := fs.Ops()
	for k := 1; k <= total; k++ {
		ffs := faultfs.New()
		ffs.FailAt(k, faultfs.DropUnsynced)
		err := segment.WriteView(ffs, "pv.seg", meta, blockOf(t, rows))
		if err == nil {
			t.Fatalf("seal with fault at op %d succeeded", k)
		}
		img := ffs.CrashImage()
		if _, err := segment.Open(img, "pv.seg"); err == nil {
			t.Fatalf("fault at op %d left a readable segment under the final name", k)
		}
	}
	// One op past the total: no fault fires, the seal must succeed.
	ffs := faultfs.New()
	ffs.FailAt(total+1, faultfs.DropUnsynced)
	if err := segment.WriteView(ffs, "pv.seg", meta, blockOf(t, rows)); err != nil {
		t.Fatal(err)
	}
	r, err := segment.Open(ffs.CrashImage(), "pv.seg")
	if err != nil {
		t.Fatal(err)
	}
	got, err := viewRows(r, math.MinInt64, math.MaxInt64)
	if err != nil || !reflect.DeepEqual(got, rows) {
		t.Fatalf("sealed segment unreadable: %v", err)
	}
}
