package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/server"
)

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json, which comparison
// tooling reads, in step with the metrics and workloads this program
// reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, spec.Workloads[i].Name, w.Name)
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(spec.EndToEnd), len(e2eMetrics))
	}
	for i, name := range e2eMetrics {
		if spec.EndToEnd[i].Name != name {
			t.Errorf("end-to-end metric %d is %q in BENCHMARK.json, %q here", i, spec.EndToEnd[i].Name, name)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer %d is %+v in BENCHMARK.json, {%s %s} here", i, spec.PerLayer[i], m.name, m.unit)
		}
	}
}

func TestCheckRows(t *testing.T) {
	row := func(t int64, lo, hi, p float64) server.RowJSON { return server.RowJSON{T: t, Lo: lo, Hi: hi, Prob: p} }
	good := []server.RowJSON{row(1, 0, 1, 0.5), row(1, 1, 2, 0.5), row(2, 0, 1, 0.2), row(2, 1, 2, 0.3)}
	if ts, err := checkRows(good, 2); err != nil || len(ts) != 2 {
		t.Fatalf("good rows: %v %v", ts, err)
	}
	bad := map[string][]server.RowJSON{
		"mass above 1":   {row(1, 0, 1, 0.6), row(1, 1, 2, 0.5)},
		"lo above hi":    {row(1, 1, 0, 0.1), row(1, 1, 2, 0.1)},
		"wrong count":    {row(1, 0, 1, 0.1), row(1, 1, 2, 0.1), row(2, 0, 1, 0.1)},
		"not contiguous": {row(1, 0, 1, 0.1), row(2, 0, 1, 0.1), row(1, 1, 2, 0.1)},
	}
	for name, rows := range bad {
		n := 2
		if name == "not contiguous" {
			n = 1
		}
		if _, err := checkRows(rows, n); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
