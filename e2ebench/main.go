// Command e2ebench is the repository's end-to-end benchmark. It launches
// the real tspdbd, built from the checkout under test, as a child process
// over a fresh durable data directory and drives it over loopback HTTP with
// one of three seeded workloads (see catalog.go): ingest, build and
// serve-mixed. Every answer is checked, a sample against a reference
// computed in process by the same public functions, and the run prints its
// metrics by name with their units, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, from a /metrics difference across the timed phase
// plus an in-process traced run that records a span around every call into
// a module's public functions. --repeat N runs each workload N times on
// consecutive seeds and prints each metric's median, quartiles and spread
// next to its bound in BENCHMARK.json.
//
// Run it through run.sh from the repository root, which builds tspdbd and
// this program first:
//
//	bash e2ebench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
//	bash e2ebench/run.sh --workload all --repeat 5 --seconds 30
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// generatorProcs caps the generator's parallelism: the box the benchmark
// was designed on has two cores, and the daemon needs them more.
const generatorProcs = 2

func main() {
	runtime.GOMAXPROCS(min(generatorProcs, runtime.NumCPU()))
	var cfg config
	var seconds, trace, repeat int
	flag.StringVar(&cfg.root, "root", "", "repository checkout (set by run.sh)")
	flag.StringVar(&cfg.daemonBin, "tspdbd", "", "tspdbd binary built from the checkout (set by run.sh)")
	flag.StringVar(&cfg.workload, "workload", "", "ingest, build, serve-mixed, or all (with --repeat)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 30, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics")
	flag.IntVar(&repeat, "repeat", 0, "run each workload this many times on consecutive seeds and summarise")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	if err := validate(cfg, seconds, trace, repeat); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	var err error
	if repeat > 0 {
		err = repeatRuns(cfg, repeat)
	} else {
		err = single(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func validate(cfg config, seconds, trace, repeat int) error {
	if cfg.root == "" || cfg.daemonBin == "" {
		return errors.New("--root and --tspdbd are required; run through e2ebench/run.sh")
	}
	if _, err := os.Stat(cfg.daemonBin); err != nil {
		return err
	}
	if _, ok := lookupWorkload(cfg.workload); !ok && !(cfg.workload == "all" && repeat > 0) {
		return fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if seconds < 1 || trace < 0 || trace > 1 || repeat < 0 {
		return errors.New("want --seconds >= 1, --trace 0 or 1, --repeat >= 0")
	}
	return nil
}

// output is the last line of a single run.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// single runs one workload once and prints its metrics, ending with the
// JSON result line. A wrong answer prints the result with correct=false and
// fails the command.
func single(cfg config) error {
	spec, _ := lookupWorkload(cfg.workload)
	printEnv(cfg, spec)
	res, err := runOnce(cfg)
	if err != nil {
		return err
	}
	out := output{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, m := range reported(cfg, res) {
		fmt.Printf("%-40s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		out.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "failed operation:", e)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "WRONG:", p)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !out.Correct {
		return errors.New("correctness check failed")
	}
	return nil
}

// reported is the run's metric list in catalog order: the end-to-end
// metrics, or with --trace 1 the per-layer vocabulary.
func reported(cfg config, res *result) []metric {
	if !cfg.trace {
		out := make([]metric, 0, len(e2eMetrics))
		for _, name := range e2eMetrics {
			for _, m := range res.e2e {
				if m.name == name {
					out = append(out, m)
				}
			}
		}
		return out
	}
	out := make([]metric, 0, len(layerMetrics))
	for _, lm := range layerMetrics {
		out = append(out, metric{name: lm.name, value: res.layer[lm.name], unit: lm.unit})
	}
	return out
}

// printEnv records what the numbers were measured on and with which policy.
func printEnv(cfg config, spec workloadSpec) {
	env := map[string]any{
		"nproc":                  runtime.NumCPU(),
		"generator_gomaxprocs":   runtime.GOMAXPROCS(0),
		"daemon_gomaxprocs":      runtime.NumCPU(),
		"go":                     runtime.Version(),
		"commit":                 commitOf(cfg.root),
		"daemon_flags":           daemonFlags,
		"fsync":                  false,
		"checkpoint_policy":      "daemon default: background checkpoint every 4 MiB of WAL",
		"durability_check_scope": "process crash (SIGKILL) under -fsync=false, not power loss",
		"seed":                   cfg.seed,
		"seconds":                cfg.seconds.Seconds(),
	}
	b, _ := json.Marshal(env) // map of plain values: cannot fail
	fmt.Println("# env", string(b))
	if spec.Name != "" {
		b, _ = json.Marshal(spec)
		fmt.Println("# workload", string(b))
	}
}

// commitOf names the code under test: the git HEAD when the checkout is a
// repository, else a fingerprint of its Go sources.
func commitOf(root string) string {
	gitDir := filepath.Join(root, ".git")
	if b, err := os.ReadFile(filepath.Join(gitDir, "HEAD")); err == nil {
		head := strings.TrimSpace(string(b))
		ref, isRef := strings.CutPrefix(head, "ref: ")
		if !isRef {
			return head
		}
		if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
			return strings.TrimSpace(string(b))
		}
		if b, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
					return sha
				}
			}
		}
	}
	return "tree-" + treeHash(root)
}

// treeHash fingerprints the checkout's Go sources and module files,
// skipping dot directories (VCS and build output).
func treeHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return nil // an unreadable entry leaves the fingerprint weaker, not wrong
		case e.IsDir() && p != root && strings.HasPrefix(e.Name(), "."):
			return filepath.SkipDir
		case !e.IsDir() && (strings.HasSuffix(p, ".go") || e.Name() == "go.mod"):
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p) // p is under root
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
