package probdb

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/storage"
	"repro/internal/view"
)

// Benchmarks for the range aggregates, two generations of the same scan:
//
//	columnar — the batch kernels over the table's columns (the public path)
//	legacy   — the pre-index flat scan (full Times() walk, per-timestamp
//	           binary search plus a row copy), reproduced inline below
//
// Each sub-benchmark reports rows/s over the 200k-row view so the CI bench
// gate (cmd/benchgate) can pin the trajectory. Run with -benchmem: allocs/op
// is part of the gated schema.

const (
	benchTuples = 25000
	benchPerT   = 8 // rows per tuple -> 200k rows total
)

func benchView(tb testing.TB) *storage.ProbTable {
	tb.Helper()
	p := &storage.ProbTable{Name: "pv", Omega: view.Omega{Delta: 0.5, N: benchPerT}}
	rows := make([]view.Row, 0, benchPerT)
	for t := 1; t <= benchTuples; t++ {
		rows = rows[:0]
		for l := 0; l < benchPerT; l++ {
			lo := float64(t%17) + float64(l)*0.5
			rows = append(rows, view.Row{
				T: int64(t), Lambda: l - benchPerT/2,
				Lo: lo, Hi: lo + 0.5, Prob: 1.0 / benchPerT,
			})
		}
		p.AppendRows(rows)
	}
	return p
}

// flatTimes / flatRowsAt are the pre-index accessor internals, inlined over
// a flat snapshot of the rows.
func flatTimes(rows []view.Row) []int64 {
	var out []int64
	var last int64
	for i, r := range rows {
		if i == 0 || r.T != last {
			out = append(out, r.T)
			last = r.T
		}
	}
	return out
}

func flatRowsAt(rows []view.Row, t int64) []view.Row {
	i := sort.Search(len(rows), func(i int) bool { return rows[i].T >= t })
	var out []view.Row
	for ; i < len(rows) && rows[i].T == t; i++ {
		out = append(out, rows[i])
	}
	return out
}

func flatExpectedSeries(rows []view.Row, tLo, tHi int64) ([]TimeSeriesPoint, error) {
	var out []TimeSeriesPoint
	for _, t := range flatTimes(rows) {
		if t < tLo || t > tHi {
			continue
		}
		e, err := Expected(flatRowsAt(rows, t))
		if err != nil {
			return nil, err
		}
		out = append(out, TimeSeriesPoint{T: t, Value: e})
	}
	if len(out) == 0 {
		return nil, ErrNoRows
	}
	return out, nil
}

func flatProbSeries(rows []view.Row, tLo, tHi int64, lo, hi float64) ([]TimeSeriesPoint, error) {
	var out []TimeSeriesPoint
	for _, t := range flatTimes(rows) {
		if t < tLo || t > tHi {
			continue
		}
		pr, err := RangeProb(flatRowsAt(rows, t), lo, hi)
		if err != nil {
			return nil, err
		}
		out = append(out, TimeSeriesPoint{T: t, Value: pr})
	}
	if len(out) == 0 {
		return nil, ErrNoRows
	}
	return out, nil
}

// reportRowsPerSec attaches the gated throughput metric: total view rows
// scanned per second of benchmark time.
func reportRowsPerSec(b *testing.B) {
	rows := float64(benchTuples*benchPerT) * float64(b.N)
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(rows/s, "rows/s")
	}
}

func BenchmarkExpectedSeries(b *testing.B) {
	p := benchView(b)
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ExpectedSeries(p, 0, benchTuples); err != nil {
				b.Fatal(err)
			}
		}
		reportRowsPerSec(b)
	})
	b.Run("legacy", func(b *testing.B) {
		rows := p.SnapshotRows()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := flatExpectedSeries(rows, 0, benchTuples); err != nil {
				b.Fatal(err)
			}
		}
		reportRowsPerSec(b)
	})
}

func BenchmarkProbSeries(b *testing.B) {
	p := benchView(b)
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ProbSeries(p, 0, benchTuples, 2, 6); err != nil {
				b.Fatal(err)
			}
		}
		reportRowsPerSec(b)
	})
	b.Run("legacy", func(b *testing.B) {
		rows := p.SnapshotRows()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := flatProbSeries(rows, 0, benchTuples, 2, 6); err != nil {
				b.Fatal(err)
			}
		}
		reportRowsPerSec(b)
	})
}

// BenchmarkExpectedCount and BenchmarkAnyInRange cover the scalar reducers
// (no output series to build — pure scan cost).
func BenchmarkExpectedCount(b *testing.B) {
	p := benchView(b)
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ExpectedCount(p, 0, benchTuples, 2, 6); err != nil {
				b.Fatal(err)
			}
		}
		reportRowsPerSec(b)
	})
}

func BenchmarkRangeProbAt(b *testing.B) {
	p := benchView(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RangeProbAt(p, int64(1+i%benchTuples), 2, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchPathsIdentical pins the acceptance criterion directly: over the
// benchmark view the columnar kernels, the row oracle and the legacy scan
// return byte-identical series.
func TestBenchPathsIdentical(t *testing.T) {
	p := benchView(t)
	rows := p.SnapshotRows()
	gotE, err := ExpectedSeries(p, 0, benchTuples)
	if err != nil {
		t.Fatal(err)
	}
	rowE, err := rowExpectedSeries(p, 0, benchTuples)
	if err != nil {
		t.Fatal(err)
	}
	wantE, err := flatExpectedSeries(rows, 0, benchTuples)
	if err != nil {
		t.Fatal(err)
	}
	gotP, err := ProbSeries(p, 0, benchTuples, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	rowP, err := rowProbSeries(p, 0, benchTuples, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := flatProbSeries(rows, 0, benchTuples, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotE) != benchTuples || len(gotP) != benchTuples {
		t.Fatalf("series lengths %d/%d, want %d", len(gotE), len(gotP), benchTuples)
	}
	for i := range gotE {
		if gotE[i] != wantE[i] || gotP[i] != wantP[i] {
			t.Fatalf("index %d: columnar/legacy series diverge", i)
		}
		if gotE[i] != rowE[i] || gotP[i] != rowP[i] {
			t.Fatalf("index %d: columnar/oracle series diverge", i)
		}
	}
}

// BenchmarkExpectedSeriesParallel runs the pooled kernel over the 200k-row
// view at fixed worker counts. The workers=N sub-names (rather than -cpu
// suffixes alone) keep benchgate keys stable: stripProcSuffix drops the
// trailing GOMAXPROCS marker, so a -cpu sweep folds into these same keys
// and the gate takes the best run. On a single-core box every count
// degrades to roughly sequential speed; the >=1.8x target is a multicore
// CI property.
func BenchmarkExpectedSeriesParallel(b *testing.B) {
	p := benchView(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ExpectedSeriesPar(p, 0, benchTuples, w); err != nil {
					b.Fatal(err)
				}
			}
			reportRowsPerSec(b)
		})
	}
}

// BenchmarkFusedSeries pins the fused multi-statistic pass: three
// statistics in one scan (sequential and pooled) against the single-
// statistic fused scan — the acceptance target is stats=3 under 1.5x the
// cost of one single-statistic scan.
func BenchmarkFusedSeries(b *testing.B) {
	p := benchView(b)
	all := FusedStats{Expected: true, Prob: true, Count: true}
	run := func(name string, want FusedStats, workers int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := FusedSeries(p, 0, benchTuples, 2, 6, want, workers); err != nil {
					b.Fatal(err)
				}
			}
			reportRowsPerSec(b)
		})
	}
	run("stats=3/workers=1", all, 1)
	run("stats=3/workers=4", all, 4)
	run("stats=1/workers=1", FusedStats{Expected: true}, 1)
}
