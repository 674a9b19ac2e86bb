package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// A run sets its fixtures up on a fresh daemon at least minSetups times
// and, while the set-ups take less than setupBudget in total, up to
// maxSetups times: a set-up of a few milliseconds (process start, empty
// catalog) needs many samples for a steady median. setup_s is their median
// and the last daemon serves the timed phase.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

// config is one benchmark invocation.
type config struct {
	root, daemonBin string
	workload        string
	seed            int64
	seconds         time.Duration
	trace           bool
}

// workDir is where a run keeps its data directories, daemon log and spans:
// inside the checkout's build directory, never elsewhere.
func (c config) workDir() string {
	return filepath.Join(c.root, ".bench_build", "run", fmt.Sprintf("%s-seed%d-pid%d", c.workload, c.seed, os.Getpid()))
}

// runner is one workload: fixtures, the measured phase, the checks that
// follow it and the in-process traced run of the same inputs.
type runner interface {
	// setup loads the fixtures into a freshly started daemon.
	setup(c *conn) error
	// timed runs the measured phase against d until the deadline and adds
	// the workload's end-to-end metrics to res.
	timed(d *daemon, end time.Time, res *result) error
	// after runs the post-phase checks (durability, reference answers)
	// with the daemon still up after the timed phase.
	after(d *daemon, res *result) error
	// counts reports the timed phase's work for the per-layer ratios.
	counts() phaseCounts
	// traced feeds the same inputs through the modules' public functions
	// in process; rec is nil for the untraced comparison run. Answers that
	// the served run also gave are compared, and mismatches recorded in res.
	traced(rec *recorder, dir string, res *result) (*tracedOut, error)
}

// phaseCounts is the work a timed phase did, as the generator saw it.
type phaseCounts struct {
	units        float64 // work units server_cpu_s is normalised by
	points       int     // raw points acknowledged
	viewRows     int     // view rows produced
	reads        int     // read requests answered
	ingestBytes  int     // response bytes of ingest requests
	clientTime   time.Duration
	lags         []time.Duration // open-loop generator lateness
	catalogRows  int             // view rows resident in the catalog at the end
	recoveryTime time.Duration
	// rssMB is the daemon's VmHWM read once a fixed amount of work is
	// done, so that a faster closed loop, which stores more in the same
	// time, does not read as a memory regression; 0 reads it at the end.
	rssMB float64
}

// metric is one reported value; note carries the sample count behind a
// percentile for the human-readable lines.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// result collects one run's metrics, operation counts and correctness
// problems. Its methods are safe for the generator and checker goroutines.
type result struct {
	mu        sync.Mutex
	e2e       []metric
	layer     map[string]float64
	attempted int64
	failed    int64
	errs      []string
	problems  []string
}

func newResult() *result { return &result{layer: map[string]float64{}} }

func (r *result) addE2E(name string, v float64, unit, note string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.e2e = append(r.e2e, metric{name: name, value: v, unit: unit, note: note})
}

func (r *result) setLayer(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.layer[name] = v
}

// op counts one attempted operation and, when err is non-nil, one failed
// one (non-2xx or transport error).
func (r *result) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

// problem records a wrong answer: the run fails its correctness check.
func (r *result) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.problems) == 0
}

// addPercentile reports the p-quantile of xs (milliseconds) under name, as
// an end-to-end metric or with layer set as a per-layer one, or records a
// problem when fewer than minBeyond samples lie beyond it.
func (r *result) addPercentile(name string, xs []float64, p float64, layer bool) {
	v, beyond, ok := percentile(xs, p)
	switch {
	case !ok:
		r.problem("%s: %d samples leave %d beyond the percentile (need %d); lengthen --seconds",
			name, len(xs), beyond, minBeyond)
	case layer:
		r.setLayer(name, v)
	default:
		r.addE2E(name, v, "ms", fmt.Sprintf("n=%d, %d beyond", len(xs), beyond))
	}
}

// opClass is one kind of operation a workload times, with its typical
// latency: a median, or on build a mean over the series' strata.
type opClass struct {
	name string // per-layer metric name
	ms   float64
	note string
}

// medianClass is a class whose typical latency is the median of xs (ms).
func medianClass(name string, xs []float64) opClass {
	return opClass{name: name, ms: median(xs), note: fmt.Sprintf("median of %d", len(xs))}
}

// addOpLatency reports each class per layer and their geometric mean as
// op_latency_ms. A workload mixes kinds of operation whose latencies differ
// several-fold, so a pooled median would sit between two kinds and jump
// between them from run to run; the geometric mean of per-class values is
// steady, and a class that slows by a factor f moves it by f^(1/classes).
func (r *result) addOpLatency(classes []opClass) {
	logSum := 0.0
	notes := make([]string, len(classes))
	for i, c := range classes {
		r.setLayer(c.name, c.ms)
		logSum += math.Log(c.ms)
		notes[i] = fmt.Sprintf("%s %.4g (%s)", c.name, c.ms, c.note)
	}
	r.addE2E("op_latency_ms", math.Exp(logSum/float64(len(classes))), "ms",
		"geometric mean of "+strings.Join(notes, ", "))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// newRunner builds the workload's runner with inputs generated from seed.
func newRunner(cfg config) (runner, error) {
	switch cfg.workload {
	case "ingest":
		return newIngest(cfg.seed)
	case "build":
		return newBuild(cfg.seed)
	case "serve-mixed":
		return newServe(cfg.seed)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// runOnce is one benchmark run: repeated set-up, the timed phase between
// two /metrics scrapes, the checks, and with cfg.trace the in-process
// traced and untraced runs.
func runOnce(cfg config) (*result, error) {
	wl, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	work := cfg.workDir()
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	logPath := filepath.Join(work, "tspdbd.log")
	res := newResult()

	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	var setups []float64
	setupStart := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(setupStart) < setupBudget); i++ {
		if d != nil {
			d.kill()
			if err := os.RemoveAll(d.dataDir); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if d, err = startDaemon(cfg.daemonBin, filepath.Join(work, fmt.Sprintf("data%d", i)), logPath); err != nil {
			return nil, err
		}
		c := newConn(d.base)
		err := wl.setup(c)
		c.close()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	ctl := newConn(d.base)
	defer ctl.close()
	before, err := ctl.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	if err := wl.timed(d, time.Now().Add(cfg.seconds), res); err != nil {
		return nil, err
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := ctl.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	disk, err := dirBytes(d.dataDir)
	if err != nil {
		return nil, err
	}
	if err := wl.after(d, res); err != nil {
		return nil, err
	}
	d.kill()
	d = nil

	pc := wl.counts()
	if pc.rssMB == 0 {
		pc.rssMB = rss
	}
	res.addE2E("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	res.addE2E("success_share", 1-ratio(float64(res.failed), float64(res.attempted)), "ratio",
		fmt.Sprintf("%d of %d operations failed", res.failed, res.attempted))
	res.addE2E("server_cpu_s", ratio(cpu1-cpu0, pc.units), "s", fmt.Sprintf("%.4g s over %.4g work units", cpu1-cpu0, pc.units))
	res.addE2E("server_rss_mb", pc.rssMB, "MiB", "VmHWM after a fixed amount of work")
	servedLayers(res, after.diff(before), pc, disk)

	if cfg.trace {
		if err := traceLayers(cfg, wl, work, res); err != nil {
			return nil, err
		}
	}
	seen := map[string]int{}
	for _, m := range res.e2e {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) || m.value <= 0 {
			return nil, fmt.Errorf("metric %s is %v, not a positive number", m.name, m.value)
		}
		seen[m.name]++
	}
	for _, name := range e2eMetrics {
		if seen[name] != 1 {
			return nil, fmt.Errorf("workload %s reported end-to-end metric %s %d times, want once", cfg.workload, name, seen[name])
		}
	}
	if len(res.e2e) != len(e2eMetrics) {
		return nil, fmt.Errorf("workload %s reported %d end-to-end metrics, want %d", cfg.workload, len(res.e2e), len(e2eMetrics))
	}
	return res, nil
}

// servedLayers derives the per-layer metrics of the untraced served run
// from the /metrics difference across the timed phase and the generator's
// own counts.
func servedLayers(res *result, m exposition, pc phaseCounts, diskBytes int64) {
	const dur = "tspdbd_request_duration_seconds"
	route := func(r string) float64 { return 1000 * m.meanOf(dur, label("route", r)) }
	res.setLayer("server.route_ms.points", route("POST /tables/{table}/points"))
	res.setLayer("server.route_ms.series", route("GET /views/{view}/series"))
	res.setLayer("server.route_ms.query", route("POST /query"))
	res.setLayer("server.route_ms.rangeprob", route("GET /views/{view}/rangeprob"))
	res.setLayer("server.route_ms.topk", route("GET /views/{view}/topk"))
	scrapeRoute := label("route", "GET /metrics")
	routeSec := m.sum(dur+"_sum", scrapeRoute)
	routeN := m.sum(dur+"_count", scrapeRoute)
	res.setLayer("server.transport_ms", ratio(ms(pc.clientTime)-1000*routeSec, routeN))
	res.setLayer("server.response_bytes_per_point", ratio(float64(pc.ingestBytes), float64(pc.points)))

	res.setLayer("core.step_us", 1e6*m.meanOf("tspdb_ingest_step_seconds"))
	res.setLayer("core.step_errors", m.get("tspdb_ingest_errors_total"))

	hits, misses := m.get("tspdbd_sigma_cache_hits_total"), m.get("tspdbd_sigma_cache_misses_total")
	res.setLayer("sigmacache.hit_ratio", ratio(hits, hits+misses))

	res.setLayer("storage.commit_us", 1e6*m.meanOf("tspdb_ingest_commit_seconds"))

	res.setLayer("probdb.rows_scanned_per_read", ratio(m.get("tspdb_probdb_rows_scanned_total"), float64(pc.reads)))
	par, seq := m.get("tspdb_probdb_parallel_scans_total"), m.get("tspdb_probdb_sequential_scans_total")
	res.setLayer("probdb.parallel_scan_share", ratio(par, par+seq))

	res.setLayer("wal.append_us", 1e6*m.meanOf("tspdb_wal_append_seconds"))
	res.setLayer("wal.bytes_per_point", ratio(m.get("tspdb_wal_bytes_total"), float64(pc.points)))
	res.setLayer("wal.fsyncs", m.get("tspdb_wal_fsync_seconds_count"))
	res.setLayer("durable.checkpoints", m.get("tspdb_checkpoints_total"))
	res.setLayer("durable.checkpoint_ms", 1000*m.meanOf("tspdb_checkpoint_seconds"))
	res.setLayer("segment.bytes_written_per_row", ratio(m.get("tspdb_segment_bytes_written_total"), float64(pc.viewRows)))
	res.setLayer("durable.disk_bytes_per_row", ratio(float64(diskBytes), float64(pc.catalogRows)))
	res.setLayer("durable.recovery_s", pc.recoveryTime.Seconds())

	if v, _, ok := percentile(durationsMS(pc.lags), 0.99); ok {
		res.setLayer("loadgen.lag_p99_ms", v)
	}
	res.setLayer("loadgen.ops", float64(res.attempted))
}
