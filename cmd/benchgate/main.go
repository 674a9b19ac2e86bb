// Command benchgate turns `go test -bench -json` output into a stable,
// diffable benchmark schema and gates CI on regressions against a
// committed baseline.
//
// Usage:
//
//	go test -run xxx -bench . -benchmem -count=5 -json ./... | benchgate parse -o BENCH.json
//	benchgate compare -baseline BENCH_BASELINE.json -current BENCH.json -tolerance 0.25
//
// parse reads the test2json stream on stdin, extracts every benchmark
// result line, and aggregates repeated runs (from -count=N) into one entry
// per benchmark: minimum ns/op, minimum B/op and allocs/op, maximum
// rows/s. Min-of-runs is the standard noise filter for shared CI runners —
// a benchmark cannot run faster than the machine allows, so the minimum is
// the least-noisy observation.
//
// compare loads two parse outputs and fails (exit 1) when any benchmark
// present in the baseline regresses beyond the tolerance: ns/op grew by
// more than tolerance×baseline, or allocs/op grew by more than
// tolerance×baseline plus one (the absolute slack keeps 0→1 alloc churn
// from tripping a percentage-only gate) — or grew at all, for baseline
// entries marked "allocs_exact": true. Benchmarks that exist only in the
// current file are reported as new but never gated; benchmarks missing
// from the current file fail the gate unless -allow-missing is set.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one aggregated benchmark entry. Zero-valued optional metrics
// (rows/s, B/op, allocs/op) mean the benchmark did not report them.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	RowsPerSec  float64 `json:"rows_per_sec,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Runs        int     `json:"runs"`
	// AllocsExact, set by hand on a baseline entry, gates allocs/op with
	// no slack: any increase fails. It suits benchmarks whose allocation
	// count is deterministic.
	AllocsExact bool `json:"allocs_exact,omitempty"`
}

// File is the on-disk schema produced by parse and consumed by compare.
type File struct {
	SchemaVersion int               `json:"schema_version"`
	Benchmarks    map[string]Result `json:"benchmarks"`
}

// testEvent is the subset of the test2json event stream we care about.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "parse":
		err = runParse(os.Args[2:])
	case "compare":
		err = runCompare(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchgate parse [-o out.json]                          # reads go test -json on stdin
  benchgate compare -baseline a.json -current b.json [-tolerance 0.25] [-allow-missing]`)
}

func runParse(args []string) error {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	file, err := ParseStream(os.Stdin)
	if err != nil {
		return err
	}
	if len(file.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark results found in input")
	}
	enc, err := MarshalFile(file)
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

func runCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	basePath := fs.String("baseline", "", "baseline JSON (required)")
	curPath := fs.String("current", "", "current JSON (required)")
	tol := fs.Float64("tolerance", 0.25, "allowed fractional ns/op regression")
	allowMissing := fs.Bool("allow-missing", false, "do not fail when a baseline benchmark is absent from current")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *basePath == "" || *curPath == "" {
		return fmt.Errorf("compare requires -baseline and -current")
	}
	base, err := loadFile(*basePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	cur, err := loadFile(*curPath)
	if err != nil {
		return fmt.Errorf("current: %w", err)
	}
	report, failed := Compare(base, cur, *tol, *allowMissing)
	fmt.Print(report)
	if failed {
		return fmt.Errorf("benchmark gate failed (tolerance %.0f%%)", *tol*100)
	}
	return nil
}

func loadFile(path string) (File, error) {
	var f File
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, err
	}
	if f.Benchmarks == nil {
		return f, fmt.Errorf("%s: no benchmarks key", path)
	}
	return f, nil
}

// MarshalFile renders a File with sorted keys and trailing newline so the
// committed baseline diffs cleanly.
func MarshalFile(f File) ([]byte, error) {
	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}

// ParseStream consumes a `go test -json` event stream and aggregates all
// benchmark result lines into a File.
//
// test2json emits benchmark output as line *fragments* — the benchmark
// name is flushed in its own event ending in a tab, and the metrics arrive
// in a later event — so output is reassembled into whole lines per package
// before parsing.
func ParseStream(r io.Reader) (File, error) {
	file := File{SchemaVersion: 1, Benchmarks: map[string]Result{}}
	partial := map[string]string{} // package -> unterminated output fragment
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev testEvent
		if line[0] != '{' || json.Unmarshal(line, &ev) != nil {
			// Tolerate raw (non-JSON) bench output mixed into the stream.
			ev = testEvent{Action: "output", Output: string(line) + "\n"}
		}
		if ev.Action != "output" {
			continue
		}
		buf := partial[ev.Package] + ev.Output
		for {
			nl := strings.IndexByte(buf, '\n')
			if nl < 0 {
				break
			}
			recordBenchLine(file.Benchmarks, ev.Package, buf[:nl])
			buf = buf[nl+1:]
		}
		partial[ev.Package] = buf
	}
	if err := sc.Err(); err != nil {
		return file, err
	}
	for pkg, buf := range partial {
		recordBenchLine(file.Benchmarks, pkg, buf)
	}
	return file, nil
}

func recordBenchLine(out map[string]Result, pkg, line string) {
	name, res, ok := parseBenchLine(line)
	if !ok {
		return
	}
	key := name
	if pkg != "" {
		key = pkg + "." + name
	}
	out[key] = mergeRuns(out[key], res)
}

// parseBenchLine parses one benchmark result line, e.g.
//
//	BenchmarkExpectedSeries/columnar-4   30  497968 ns/op  4.0e8 rows/s  8 B/op  1 allocs/op
//
// The trailing -N GOMAXPROCS suffix is stripped from the name so results
// stay comparable across runner shapes.
func parseBenchLine(s string) (string, Result, bool) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "Benchmark") {
		return "", Result{}, false
	}
	fields := strings.Fields(s)
	// name, iterations, then (value, unit) pairs.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return "", Result{}, false
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", Result{}, false
	}
	name := stripProcSuffix(fields[0])
	res := Result{Runs: 1}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
			seen = true
		case "rows/s":
			res.RowsPerSec = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		}
	}
	if !seen {
		return "", Result{}, false
	}
	return name, res, true
}

// stripProcSuffix removes the trailing -N GOMAXPROCS marker, but only when
// N is numeric — "BenchmarkFoo/sub-case" keeps its name.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// mergeRuns folds a new run into the aggregate: min ns/op, min B/op, min
// allocs/op, max rows/s.
func mergeRuns(agg, run Result) Result {
	if agg.Runs == 0 {
		return run
	}
	agg.Runs += run.Runs
	agg.NsPerOp = math.Min(agg.NsPerOp, run.NsPerOp)
	agg.BytesPerOp = math.Min(agg.BytesPerOp, run.BytesPerOp)
	agg.AllocsPerOp = math.Min(agg.AllocsPerOp, run.AllocsPerOp)
	agg.RowsPerSec = math.Max(agg.RowsPerSec, run.RowsPerSec)
	return agg
}

// Compare renders a comparison report and reports whether the gate failed.
// Only benchmarks present in the baseline are gated.
func Compare(base, cur File, tolerance float64, allowMissing bool) (string, bool) {
	var b strings.Builder
	failed := false
	keys := make([]string, 0, len(base.Benchmarks))
	for k := range base.Benchmarks {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	fmt.Fprintf(&b, "benchgate: %d gated benchmark(s), tolerance %.0f%%\n", len(keys), tolerance*100)
	for _, k := range keys {
		bl := base.Benchmarks[k]
		cl, ok := cur.Benchmarks[k]
		if !ok {
			if allowMissing {
				fmt.Fprintf(&b, "  SKIP  %s: missing from current run\n", k)
			} else {
				fmt.Fprintf(&b, "  FAIL  %s: missing from current run\n", k)
				failed = true
			}
			continue
		}
		delta := 0.0
		if bl.NsPerOp > 0 {
			delta = cl.NsPerOp/bl.NsPerOp - 1
		}
		status := "ok"
		if delta > tolerance {
			status = "FAIL"
			failed = true
		}
		fmt.Fprintf(&b, "  %-4s  %s: %.0f -> %.0f ns/op (%+.1f%%)", status, k, bl.NsPerOp, cl.NsPerOp, delta*100)
		if bl.RowsPerSec > 0 && cl.RowsPerSec > 0 {
			fmt.Fprintf(&b, ", %.3g -> %.3g rows/s", bl.RowsPerSec, cl.RowsPerSec)
		}
		// Allocation gate: percentage tolerance plus one alloc of absolute
		// slack, so 0->1 churn on an otherwise-clean kernel is not fatal;
		// none at all for entries marked allocs_exact.
		allocLimit := bl.AllocsPerOp*(1+tolerance) + 1
		if bl.AllocsExact {
			allocLimit = bl.AllocsPerOp
		}
		if cl.AllocsPerOp > allocLimit {
			fmt.Fprintf(&b, ", allocs/op %v -> %v FAIL", bl.AllocsPerOp, cl.AllocsPerOp)
			failed = true
		} else if cl.AllocsPerOp != bl.AllocsPerOp {
			fmt.Fprintf(&b, ", allocs/op %v -> %v", bl.AllocsPerOp, cl.AllocsPerOp)
		}
		b.WriteByte('\n')
	}
	extra := 0
	for k := range cur.Benchmarks {
		if _, ok := base.Benchmarks[k]; !ok {
			extra++
		}
	}
	if extra > 0 {
		fmt.Fprintf(&b, "  %d new benchmark(s) not in baseline (not gated)\n", extra)
	}
	if failed {
		b.WriteString("RESULT: FAIL\n")
	} else {
		b.WriteString("RESULT: ok\n")
	}
	return b.String(), failed
}
