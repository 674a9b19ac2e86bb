package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// repeatRuns runs each selected workload n times on seeds seed..seed+n-1
// and prints, per metric, the median, the quartiles and their distance as a
// share of the median next to the metric's bound in BENCHMARK.json: a
// spread within a third of the bound is steady ("ok").
func repeatRuns(cfg config, n int) error {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	bounds, err := readBounds(cfg.root)
	if err != nil {
		return err
	}
	printEnv(cfg, workloadSpec{})
	var failures []string
	for _, w := range names {
		spec, _ := lookupWorkload(w)
		b, _ := json.Marshal(spec) // plain strings: cannot fail
		fmt.Println("# workload", string(b))
		values := map[string][]float64{}
		units := map[string]string{}
		var order []string
		for k := 0; k < n; k++ {
			c := cfg
			c.workload, c.seed = w, cfg.seed+int64(k)
			start := time.Now()
			res, err := runOnce(c)
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s seed %d: %v", w, c.seed, err))
				continue
			}
			for _, p := range res.problems {
				failures = append(failures, fmt.Sprintf("%s seed %d: %s", w, c.seed, p))
			}
			var line strings.Builder
			for _, m := range reported(c, res) {
				if _, seen := units[m.name]; !seen {
					order = append(order, m.name)
					units[m.name] = m.unit
				}
				values[m.name] = append(values[m.name], m.value)
				fmt.Fprintf(&line, " %s=%.4g", m.name, m.value)
			}
			fmt.Printf("# %s seed %d: %.1fs, %d of %d operations failed;%s\n",
				w, c.seed, time.Since(start).Seconds(), res.failed, res.attempted, line.String())
		}
		fmt.Printf("%-12s %-40s %-6s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict")
		for _, name := range order {
			xs := values[name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := ratio(q3-q1, math.Abs(med))
			bound, hasBound := bounds[name]
			verdict, boundText := "", "-"
			if hasBound {
				boundText = fmt.Sprintf("%.3g", bound)
				switch {
				case spread <= bound/3:
					verdict = "ok"
				case spread <= bound:
					verdict = "within bound, above a third"
				default:
					verdict = "WIDER THAN BOUND"
				}
			}
			fmt.Printf("%-12s %-40s %-6s %12.6g %12.6g %12.6g %8.4f %6s  %s\n", w, name, units[name], med, q1, q3, spread, boundText, verdict)
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAILED:", f)
		}
		return fmt.Errorf("%d runs or checks failed", len(failures))
	}
	return nil
}

// readBounds returns the end-to-end bounds BENCHMARK.json fixes, by metric
// name; none when the file is absent.
func readBounds(root string) (map[string]float64, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return map[string]float64{}, nil
	}
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
