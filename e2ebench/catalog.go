package main

// workloadSpec is a workload's provenance, printed with every run.
type workloadSpec struct {
	Name     string `json:"name"`
	Loop     string `json:"loop"`
	Inputs   string `json:"inputs"`
	Stresses string `json:"stresses"`
	Bypasses string `json:"bypasses"`
	Why      string `json:"why"`
	// Ops says what op_latency_ms and throughput_per_s measure on this
	// workload: every workload reports every end-to-end metric.
	Ops string `json:"ops"`
}

// workloads is the fixed workload vocabulary. Each stresses different
// layers so that an optimisation has a workload that exercises it and one
// that bypasses it.
var workloads = []workloadSpec{
	{
		Name: "ingest",
		Loop: "closed loop, 1 connection, batches of 10 points alternating between two streams",
		Inputs: "campus generator, --seed, 4x the dataset length (72124 points); stream campus: ARMA(1,0)-GARCH(1,1), H=90, " +
			"Omega delta=0.05 n=300, sigma-cache [1e-3,50] H'=0.01, streaming from the series start; stream " +
			"campus_dirty: the same series from its midpoint, 2% of the streamed points replaced at 6 sigma " +
			"(dataset.InjectErrors, seed --seed, warm-up kept clean), C-GARCH cleaning OCMax=7, no sigma-cache",
		Stresses: "density (model fitting), clean, view generation cached and uncached, storage commit, WAL append and checkpoints, server encode",
		Bypasses: "query, probdb read kernels",
		Why:      "model fitting does most of the work of served ingest; the stream also covers WAL, checkpoints, cleaning and Omega generation",
		Ops: "op_latency_ms: geometric mean of the median 10-point batch latency of campus and of campus_dirty; " +
			"throughput_per_s: points acknowledged per second",
	},
	{
		Name: "build",
		Loop: "closed loop, 1 connection, alternating CREATE VIEW (a) and (b); the k-th build of each lies in " +
			"stratum k mod 6 of the series (offset and jitter from --seed), so a run samples the whole series",
		Inputs: "campus series from --seed; (a) ARMA_GARCH WINDOW 90 Omega delta=0.05 n=300 CACHE DISTANCE 0.01 " +
			"over 3000 tuples; (b) KALMAN_GARCH WINDOW 90 same Omega, no cache, over 500 tuples",
		Stresses: "density fits (ARMA-GARCH, Kalman-GARCH), view.Builder workers, sigma-cache, StoreView, one large WAL record",
		Bypasses: "server encode (tiny response), streams, read kernels",
		Why:      "the paper's offline path (Fig. 14a) and the Kalman cost (Fig. 10); a Kalman-only change moves (b) and leaves (a)",
		Ops: "op_latency_ms: geometric mean of the mean CREATE VIEW latency of (a) and of (b); " +
			"throughput_per_s: view tuples built per second",
	},
	{
		Name: "serve-mixed",
		Loop: "open loop, 2 connections timed from each request's scheduled send: 100 points/s ingest " +
			"(10 every 100 ms) and 200 reads/s in a seeded mix",
		Inputs: "hist: VT n=100 view over the full campus series from --seed, built in set-up; live: ARMA-GARCH " +
			"n=300 stream over a second campus series; reads: 1/4 rangeprob at a random t of hist, 1/4 topk at " +
			"a recent acknowledged t of live, 7/16 series?stats=expected,prob,count over 720 tuples of hist, " +
			"1/32 SELECT EXPECTED and 1/32 SELECT COUNT over 10080 tuples (two weeks) of hist",
		Stresses: "query, probdb kernels and server encode beside live ingest on the same storage",
		Bypasses: "sigma-cache, cleaning",
		Why:      "reads and writes share 2 cores at a sustainable load, so a gain for one that costs the other shows",
		Ops: "op_latency_ms: geometric mean of the median latency, from scheduled send, of point reads, of scan " +
			"reads and of live-ingest batches; throughput_per_s: requests answered per second (offered 210/s)",
	},
}

// e2eMetrics are the end-to-end metrics, each reported once by every
// workload, in the order a run prints them.
var e2eMetrics = []string{"op_latency_ms", "throughput_per_s", "setup_s", "success_share", "server_cpu_s", "server_rss_mb"}

// layerMetrics is the per-layer vocabulary a --trace 1 run reports, every
// name on every workload (zero where the workload bypasses the layer), with
// its unit.
var layerMetrics = []struct{ name, unit string }{
	{"server.route_ms.points", "ms"},
	{"server.route_ms.series", "ms"},
	{"server.route_ms.query", "ms"},
	{"server.route_ms.rangeprob", "ms"},
	{"server.route_ms.topk", "ms"},
	{"server.encode_us_per_row", "us"},
	{"server.response_bytes_per_point", "B"},
	{"server.transport_ms", "ms"},
	{"query.parse_us", "us"},
	{"query.exec_us", "us"},
	{"query.rows_scanned_per_result_row", "ratio"},
	{"core.step_us", "us"},
	{"core.step_errors", "count"},
	{"density.model_share", "ratio"},
	{"density.infer_us.arma_garch", "us"},
	{"density.infer_us.kalman_garch", "us"},
	{"density.infer_us.cgarch", "us"},
	{"density.allocs_per_infer.arma_garch", "count"},
	{"density.allocs_per_infer.kalman_garch", "count"},
	{"density.allocs_per_infer.cgarch", "count"},
	{"density.bytes_per_infer.arma_garch", "B"},
	{"density.bytes_per_infer.kalman_garch", "B"},
	{"density.bytes_per_infer.cgarch", "B"},
	{"arma.fit_us", "us"},
	{"garch.fit_us", "us"},
	{"kalman.fit_us", "us"},
	{"clean.prepare_us", "us"},
	{"clean.erroneous_marked", "count"},
	{"clean.injected_caught_ratio", "ratio"},
	{"clean.trend_changes", "count"},
	{"view.generate_us_per_tuple.cached", "us"},
	{"view.generate_us_per_tuple.uncached", "us"},
	{"view.rows_per_tuple", "count"},
	{"view.allocs_per_tuple", "count"},
	{"sigmacache.hit_ratio", "ratio"},
	{"sigmacache.entries", "count"},
	{"sigmacache.bytes", "B"},
	{"storage.commit_us", "us"},
	{"storage.store_view_ms", "ms"},
	{"storage.heap_bytes_per_row", "B"},
	{"probdb.rows_scanned_per_read", "count"},
	{"probdb.ns_per_row", "ns"},
	{"probdb.parallel_scan_share", "ratio"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_point", "B"},
	{"wal.fsyncs", "count"},
	{"durable.checkpoints", "count"},
	{"durable.checkpoint_ms", "ms"},
	{"segment.bytes_written_per_row", "B"},
	{"durable.disk_bytes_per_row", "B"},
	{"durable.recovery_s", "s"},
	{"op.ingest_campus_p50_ms", "ms"},
	{"op.ingest_dirty_p50_ms", "ms"},
	{"op.build_arma_garch_ms", "ms"},
	{"op.build_kalman_garch_ms", "ms"},
	{"op.read_point_p50_ms", "ms"},
	{"op.read_scan_p50_ms", "ms"},
	{"op.live_ingest_p50_ms", "ms"},
	{"tail.ingest_batch_p95_ms", "ms"},
	{"tail.read_point_p99_ms", "ms"},
	{"tail.read_scan_p99_ms", "ms"},
	{"tail.live_ingest_p95_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.ops", "count"},
	{"trace.self_ms.server", "ms"},
	{"trace.self_ms.query", "ms"},
	{"trace.self_ms.density", "ms"},
	{"trace.self_ms.clean", "ms"},
	{"trace.self_ms.view", "ms"},
	{"trace.self_ms.sigmacache", "ms"},
	{"trace.self_ms.storage", "ms"},
	{"trace.self_ms.probdb", "ms"},
	{"trace.wall_ms", "ms"},
	{"trace.coverage_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// tracedLayers are the layers the traced run records spans for.
var tracedLayers = []string{"server", "query", "density", "clean", "view", "sigmacache", "storage", "probdb"}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
