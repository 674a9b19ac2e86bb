package main

import (
	"strings"
	"testing"
)

const sampleStream = `{"Action":"start","Package":"repro/internal/probdb"}
{"Action":"output","Package":"repro/internal/probdb","Output":"goos: linux\n"}
{"Action":"output","Package":"repro/internal/probdb","Output":"BenchmarkExpectedSeries/columnar-4 \t      30\t    500000 ns/op\t 400000000 rows/s\t       8 B/op\t       1 allocs/op\n"}
{"Action":"output","Package":"repro/internal/probdb","Output":"BenchmarkExpectedSeries/columnar-4 \t      30\t    480000 ns/op\t 410000000 rows/s\t       8 B/op\t       1 allocs/op\n"}
{"Action":"output","Package":"repro/internal/probdb","Output":"BenchmarkExpectedSeries/indexed-4 \t      10\t   1200000 ns/op\t 170000000 rows/s\t    1376 B/op\t      23 allocs/op\n"}
{"Action":"output","Package":"repro/internal/probdb","Output":"ok  \trepro/internal/probdb\t2.1s\n"}
{"Action":"pass","Package":"repro/internal/probdb"}
`

func TestParseStreamAggregatesRuns(t *testing.T) {
	f, err := ParseStream(strings.NewReader(sampleStream))
	if err != nil {
		t.Fatal(err)
	}
	if f.SchemaVersion != 1 {
		t.Fatalf("schema_version = %d", f.SchemaVersion)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks: %v", len(f.Benchmarks), f.Benchmarks)
	}
	key := "repro/internal/probdb.BenchmarkExpectedSeries/columnar"
	r, ok := f.Benchmarks[key]
	if !ok {
		t.Fatalf("missing key %q; have %v", key, f.Benchmarks)
	}
	if r.Runs != 2 {
		t.Fatalf("runs = %d, want 2", r.Runs)
	}
	if r.NsPerOp != 480000 { // min of runs
		t.Fatalf("ns/op = %v, want min 480000", r.NsPerOp)
	}
	if r.RowsPerSec != 410000000 { // max of runs
		t.Fatalf("rows/s = %v, want max 410000000", r.RowsPerSec)
	}
	if r.AllocsPerOp != 1 || r.BytesPerOp != 8 {
		t.Fatalf("allocs=%v bytes=%v", r.AllocsPerOp, r.BytesPerOp)
	}
}

// test2json flushes the benchmark name and its metrics as separate output
// events; the parser must stitch fragments back into whole lines, per
// package, before matching.
func TestParseStreamStitchesFragments(t *testing.T) {
	stream := `{"Action":"output","Package":"p1","Output":"BenchmarkSplit/columnar         \t"}
{"Action":"output","Package":"p2","Output":"BenchmarkOther-4 \t 10\t 99 ns/op\n"}
{"Action":"output","Package":"p1","Output":"      20\t    350000 ns/op\t 500000000 rows/s\t       8 B/op\t       1 allocs/op\n"}
`
	f, err := ParseStream(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := f.Benchmarks["p1.BenchmarkSplit/columnar"]
	if !ok {
		t.Fatalf("fragmented benchmark not stitched: %v", f.Benchmarks)
	}
	if r.NsPerOp != 350000 || r.RowsPerSec != 500000000 {
		t.Fatalf("stitched metrics wrong: %+v", r)
	}
	if o, ok := f.Benchmarks["p2.BenchmarkOther"]; !ok || o.NsPerOp != 99 {
		t.Fatalf("interleaved package broken: %v", f.Benchmarks)
	}
}

func TestParseStreamToleratesRawBenchOutput(t *testing.T) {
	raw := "BenchmarkScan-2 \t 100 \t 12345 ns/op\nnot a bench line\n"
	f, err := ParseStream(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := f.Benchmarks["BenchmarkScan"]
	if !ok || r.NsPerOp != 12345 {
		t.Fatalf("raw line not parsed: %v", f.Benchmarks)
	}
}

func TestParseBenchLineRejectsNonBench(t *testing.T) {
	for _, s := range []string{
		"ok  \trepro/internal/probdb\t2.1s",
		"BenchmarkNoMetrics-4",
		"Benchmark words only here",
		"goos: linux",
	} {
		if name, _, ok := parseBenchLine(s); ok {
			t.Fatalf("parseBenchLine(%q) accepted as %q", s, name)
		}
	}
}

func TestStripProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-4":          "BenchmarkFoo",
		"BenchmarkFoo/sub-16":     "BenchmarkFoo/sub",
		"BenchmarkFoo/sub-case":   "BenchmarkFoo/sub-case",
		"BenchmarkFoo":            "BenchmarkFoo",
		"BenchmarkFoo/columnar-1": "BenchmarkFoo/columnar",
	}
	for in, want := range cases {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func mkFile(entries map[string]Result) File {
	return File{SchemaVersion: 1, Benchmarks: entries}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	base := mkFile(map[string]Result{"a.BenchmarkX": {NsPerOp: 1000, AllocsPerOp: 1, Runs: 5}})
	cur := mkFile(map[string]Result{"a.BenchmarkX": {NsPerOp: 1200, AllocsPerOp: 1, Runs: 5}})
	report, failed := Compare(base, cur, 0.25, false)
	if failed {
		t.Fatalf("gate failed within tolerance:\n%s", report)
	}
	if !strings.Contains(report, "RESULT: ok") {
		t.Fatalf("report missing ok marker:\n%s", report)
	}
}

func TestCompareFailsOnSlowdown(t *testing.T) {
	base := mkFile(map[string]Result{"a.BenchmarkX": {NsPerOp: 1000, Runs: 5}})
	cur := mkFile(map[string]Result{"a.BenchmarkX": {NsPerOp: 2000, Runs: 5}})
	report, failed := Compare(base, cur, 0.25, false)
	if !failed {
		t.Fatalf("2x slowdown passed the gate:\n%s", report)
	}
	if !strings.Contains(report, "FAIL") {
		t.Fatalf("report missing FAIL marker:\n%s", report)
	}
}

func TestCompareAllocGate(t *testing.T) {
	base := mkFile(map[string]Result{"a.BenchmarkX": {NsPerOp: 1000, AllocsPerOp: 0, Runs: 5}})
	// 0 -> 1 alloc: absolute slack of one keeps this green.
	cur := mkFile(map[string]Result{"a.BenchmarkX": {NsPerOp: 1000, AllocsPerOp: 1, Runs: 5}})
	if report, failed := Compare(base, cur, 0.25, false); failed {
		t.Fatalf("0->1 alloc churn tripped the gate:\n%s", report)
	}
	// 0 -> 5 allocs: a real regression.
	cur = mkFile(map[string]Result{"a.BenchmarkX": {NsPerOp: 1000, AllocsPerOp: 5, Runs: 5}})
	if report, failed := Compare(base, cur, 0.25, false); !failed {
		t.Fatalf("0->5 alloc regression passed the gate:\n%s", report)
	}
}

func TestCompareAllocsExact(t *testing.T) {
	base := mkFile(map[string]Result{"a.BenchmarkX": {NsPerOp: 1000, AllocsPerOp: 28, Runs: 5, AllocsExact: true}})
	for _, tc := range []struct {
		allocs float64
		fail   bool
	}{{28, false}, {20, false}, {29, true}} {
		cur := mkFile(map[string]Result{"a.BenchmarkX": {NsPerOp: 1000, AllocsPerOp: tc.allocs, Runs: 5}})
		if report, failed := Compare(base, cur, 0.25, false); failed != tc.fail {
			t.Errorf("28 -> %v allocs under allocs_exact: failed=%v, want %v\n%s", tc.allocs, failed, tc.fail, report)
		}
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	base := mkFile(map[string]Result{"a.BenchmarkX": {NsPerOp: 1000, Runs: 5}})
	cur := mkFile(map[string]Result{"a.BenchmarkY": {NsPerOp: 1000, Runs: 5}})
	if _, failed := Compare(base, cur, 0.25, false); !failed {
		t.Fatal("missing baseline benchmark passed the gate")
	}
	report, failed := Compare(base, cur, 0.25, true)
	if failed {
		t.Fatalf("-allow-missing still failed:\n%s", report)
	}
	if !strings.Contains(report, "SKIP") {
		t.Fatalf("report missing SKIP marker:\n%s", report)
	}
	if !strings.Contains(report, "1 new benchmark(s)") {
		t.Fatalf("report missing new-benchmark note:\n%s", report)
	}
}

func TestMarshalFileRoundTrip(t *testing.T) {
	f := mkFile(map[string]Result{"a.BenchmarkX": {NsPerOp: 1000, RowsPerSec: 2e8, Runs: 5}})
	enc, err := MarshalFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if enc[len(enc)-1] != '\n' {
		t.Fatal("marshaled file missing trailing newline")
	}
	if !strings.Contains(string(enc), "\"rows_per_sec\"") {
		t.Fatalf("rows_per_sec missing from output:\n%s", enc)
	}
}
