package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/arma"
	"repro/internal/clean"
	"repro/internal/density"
	"repro/internal/durable"
	"repro/internal/garch"
	"repro/internal/kalman"
	"repro/internal/probdb"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/sigmacache"
	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal"
)

// Sizes of the in-process traced runs: fixed work, so that traced and
// untraced wall times compare.
const (
	tracedIngestBatches = 120 // 600 points per ingest stream
	tracedReads         = 800 // serve-mixed reads, with one live batch per 20
	fitSamples          = 60  // windows the fit sub-layers are timed on
)

// tracedOut is what a traced run did, for the per-layer ratios.
type tracedOut struct {
	wall          time.Duration
	tuples        map[bool]int // generated tuples by cached
	viewRows      int
	cacheEntries  int
	cacheBytes    int
	heapPerRow    float64
	probdbRows    int
	encodedRows   int
	scannedRows   int
	resultRows    int
	fitWindows    [][]float64 // ARMA-GARCH windows for the fit sub-layers
	kalmanWindows [][]float64
}

func newTracedOut() *tracedOut { return &tracedOut{tuples: map[bool]int{}} }

// tracedMetric wraps a density metric so every Infer, including those
// clean.Processor and view.TuplesFromSeries make, is a span. With count
// set it also charges the call's allocations to the span name.
type tracedMetric struct {
	density.Metric
	rec   *recorder
	name  string
	count bool
}

func (m tracedMetric) Infer(w []float64) (inf *density.Inference, err error) {
	fn := func() { inf, err = m.Metric.Infer(w) }
	if m.count {
		m.rec.callCounted(m.name, m.name, 1, fn)
	} else {
		m.rec.call(m.name, fn)
	}
	return inf, err
}

func traceMetric(rec *recorder, m density.Metric, key string, count bool) density.Metric {
	return tracedMetric{Metric: m, rec: rec, name: "density.infer." + key, count: count}
}

// openStore opens a durable store like the daemon's: no fsync, default
// checkpoint threshold.
func openStore(dir string) (*durable.Store, error) {
	return durable.Open(wal.OS(), dir, durable.Options{})
}

// tracedStream is an online stream composed from the modules' public
// functions the way core.Stream composes them: inference on the window (or
// C-GARCH's Prepare), GenerateOne, then CommitStep.
type tracedStream struct {
	rec     *recorder
	db      *storage.DB
	source  string
	table   *storage.ProbTable
	metric  density.Metric
	builder *view.Builder
	proc    *clean.Processor
	window  []float64
	cached  bool
	first   int64 // first and latest streamed timestamps
	latest  int64
}

func newTracedStream(rec *recorder, db *storage.DB, source, viewName string, warm []timeseries.Point,
	key string, cache bool, svMax float64) (*tracedStream, error) {
	series, err := timeseries.New(warm)
	if err != nil {
		return nil, err
	}
	if _, err := db.CreateRawTable(source, "", "", series); err != nil {
		return nil, err
	}
	inner, err := query.BuildMetric(&query.MetricSpec{Name: "ARMA_GARCH"})
	if err != nil {
		return nil, err
	}
	s := &tracedStream{rec: rec, db: db, source: source, metric: traceMetric(rec, inner, key, true), cached: cache}
	if s.builder, err = view.NewBuilder(omega); err != nil {
		return nil, err
	}
	if cache {
		s.builder.Cache, err = sigmacache.New(sigmacache.Config{Delta: omegaDelta, N: omegaN, DistanceConstraint: cacheDist}, sigmaMin, sigmaMax)
		if err != nil {
			return nil, err
		}
	}
	s.window = append([]float64(nil), series.Values()[len(warm)-window:]...)
	if svMax > 0 {
		s.proc, err = clean.NewProcessor(clean.Config{Metric: s.metric, H: window, OCMax: ocMax, SVMax: svMax}, s.window)
		if err != nil {
			return nil, err
		}
	}
	s.table = &storage.ProbTable{Name: viewName, Source: source, MetricName: inner.Name(), Omega: omega}
	return s, db.StoreView(s.table)
}

// step ingests one point.
func (s *tracedStream) step(p timeseries.Point, out *tracedOut) ([]view.Row, error) {
	var tp view.Tuple
	var commit func()
	var err error
	if s.proc != nil {
		var st *clean.StepResult
		s.rec.call("clean.prepare", func() { st, commit, err = s.proc.Prepare(p.V) })
		if err != nil {
			return nil, err
		}
		tp = view.Tuple{T: p.T, RHat: st.Inference.RHat, Sigma: st.Inference.Sigma, Dist: st.Inference.Dist}
	} else {
		inf, err := s.metric.Infer(s.window)
		if err != nil {
			return nil, err
		}
		tp = view.Tuple{T: p.T, RHat: inf.RHat, Sigma: inf.Sigma, Dist: inf.Dist}
		if len(out.fitWindows) < fitSamples && out.tuples[s.cached]%10 == 0 {
			out.fitWindows = append(out.fitWindows, append([]float64(nil), s.window...))
		}
		commit = func() {
			copy(s.window, s.window[1:])
			s.window[len(s.window)-1] = p.V
		}
	}
	var rows []view.Row
	s.rec.callCounted(generateSpan("view.generate_one", s.cached), "view.generate", 1, func() { rows, err = s.builder.GenerateOne(tp) })
	if err != nil {
		return nil, err
	}
	s.rec.call("storage.commit_step", func() { err = s.db.CommitStep(s.source, p, s.table, rows) })
	if err != nil {
		return nil, err
	}
	commit()
	if s.first == 0 {
		s.first = p.T
	}
	s.latest = p.T
	out.tuples[s.cached]++
	out.viewRows += len(rows)
	return rows, nil
}

func generateSpan(name string, cached bool) string {
	if cached {
		return name + ".cached"
	}
	return name + ".uncached"
}

// batch ingests points as one request would and encodes the response.
func (s *tracedStream) batch(pts []timeseries.Point, out *tracedOut) (*server.IngestResponse, error) {
	resp := &server.IngestResponse{}
	for _, p := range pts {
		rows, err := s.step(p, out)
		if err != nil {
			return nil, err
		}
		resp.Ingested++
		resp.Rows = append(resp.Rows, rowsJSON(rows)...)
	}
	return resp, encode(s.rec, resp, len(resp.Rows), out)
}

// encode is the server's response encoding, traced.
func encode(rec *recorder, v any, rows int, out *tracedOut) error {
	var err error
	rec.call("server.encode", func() { _, err = json.Marshal(v) })
	out.encodedRows += rows
	return err
}

// traced runs the ingest streams in process on the same inputs.
func (r *ingestRun) traced(rec *recorder, dir string, res *result) (*tracedOut, error) {
	store, err := openStore(dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	out := newTracedOut()
	start := time.Now()
	var streams [2]*tracedStream
	for i, s := range r.streams {
		key := "arma_garch"
		if s.open.CleanSVMax > 0 {
			key = "cgarch"
		}
		streams[i], err = newTracedStream(rec, store.DB(), s.table, s.view, s.points[s.start-warmLen:s.start],
			key, s.open.SigmaMax > 0, s.open.CleanSVMax)
		if err != nil {
			return nil, err
		}
	}
	for b := 0; b < tracedIngestBatches; b++ {
		rec.setReq(b)
		i := b % 2
		at := r.streams[i].start + (b/2)*batchSize
		resp, err := streams[i].batch(r.streams[i].points[at:at+batchSize], out)
		if err != nil {
			return nil, err
		}
		// The served stream saw the same points from the same state, so
		// its acknowledged rows must be these, bit for bit.
		for _, g := range splitByT(resp.Rows) {
			if want, ok := r.streams[i].digests[g[0].T]; ok && want != digest(g) {
				res.problem("%s t=%d: served rows differ from the in-process pipeline", r.streams[i].table, g[0].T)
			}
		}
	}
	out.wall = time.Since(start)
	if c := streams[0].builder.Cache; c != nil {
		st := c.Stats()
		out.cacheEntries, out.cacheBytes = st.Entries, st.ApproxBytes
	}
	return out, nil
}

// traced runs the first pair of builds in process: the same statements
// over the same windows, through query.Parse and the functions
// query.ExecStmtWith composes for CREATE VIEW.
func (r *buildRun) traced(rec *recorder, dir string, res *result) (*tracedOut, error) {
	store, err := openStore(dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	db := store.DB()
	series, err := timeseries.New(r.points)
	if err != nil {
		return nil, err
	}
	if _, err := db.CreateRawTable("campus", "", "", series); err != nil {
		return nil, err
	}
	out := newTracedOut()
	plan := newWindowPlan(r.seed)
	start := time.Now()
	for i, b := range viewBuilds {
		rec.setReq(i)
		lo := plan.start(r.points, 0, b.tuples)
		var views int
		var cst *sigmacache.Stats
		if views, cst, err = tracedCreateView(rec, db, b.statement(lo), b.key, true, out); err != nil {
			return nil, err
		}
		if f := r.first[i]; f != nil && f.View != nil {
			if f.View.Rows != views || (cst != nil && (f.Cache == nil || f.Cache.Hits != cst.Hits ||
				f.Cache.Misses != cst.Misses || f.Cache.Entries != cst.Entries)) {
				res.problem("%s: served build (rows %d, cache %+v) differs from the in-process one (rows %d, cache %+v)",
					b.name, f.View.Rows, f.Cache, views, cst)
			}
		}
		if cst != nil {
			out.cacheEntries, out.cacheBytes = cst.Entries, cst.ApproxBytes
		}
	}
	out.wall = time.Since(start)
	return out, nil
}

// tracedCreateView parses and executes a CREATE VIEW the way
// query.ExecStmtWith does, with a span around each public call.
func tracedCreateView(rec *recorder, db *storage.DB, text, key string, count bool, out *tracedOut) (int, *sigmacache.Stats, error) {
	var stmt query.Stmt
	var err error
	rec.call("query.parse", func() { stmt, err = query.Parse(text) })
	if err != nil {
		return 0, nil, err
	}
	cv, ok := stmt.(*query.CreateViewStmt)
	if !ok {
		return 0, nil, fmt.Errorf("%q is not a CREATE VIEW", text)
	}
	inner, err := query.BuildMetric(cv.Metric)
	if err != nil {
		return 0, nil, err
	}
	series, err := db.SnapshotSeries(cv.From)
	if err != nil {
		return 0, nil, err
	}
	tLo, tHi := int64(math.MinInt64), int64(math.MaxInt64)
	if cv.Where != nil {
		tLo, tHi = cv.Where.Lo, cv.Where.Hi
	}
	var tuples []view.Tuple
	rec.call("view.tuples_from_series", func() {
		tuples, err = view.TuplesFromSeries(series, traceMetric(rec, inner, key, count), cv.Window, tLo, tHi)
	})
	if err != nil {
		return 0, nil, err
	}
	if key == "arma_garch" || key == "kalman_garch" {
		sampleWindows(series, tuples, cv.Window, key, out)
	}
	builder, err := view.NewBuilder(view.Omega{Delta: cv.Delta, N: cv.N})
	if err != nil {
		return 0, nil, err
	}
	builder.Parallelism = query.ResolveParallelism(0)
	var cache *sigmacache.Cache
	if cv.Cache != nil {
		rec.call("sigmacache.attach_cache", func() { cache, err = builder.AttachCache(tuples, cv.Cache.Distance, cv.Cache.Memory) })
		if err != nil {
			return 0, nil, err
		}
	}
	var v *view.View
	rec.callCounted(generateSpan("view.generate", cache != nil), "view.generate", len(tuples), func() { v, err = builder.Generate(tuples) })
	if err != nil {
		return 0, nil, err
	}
	var cst *sigmacache.Stats
	if cache != nil {
		st := cache.Stats()
		cst = &st
	}
	out.tuples[cv.Cache != nil] += len(tuples)
	out.viewRows += len(v.Rows)
	table := &storage.ProbTable{Name: cv.ViewName, Source: cv.From, MetricName: inner.Name(), Omega: v.Omega, Rows: v.Rows}
	rec.call("storage.store_view", func() { err = db.StoreView(table) })
	if err != nil {
		return 0, nil, err
	}
	resp := server.QueryResponse{Kind: "view", View: &server.ViewSummaryJSON{
		Name: cv.ViewName, Source: cv.From, Metric: inner.Name(), Delta: cv.Delta, N: cv.N, Rows: len(v.Rows)}}
	return len(v.Rows), cst, encode(rec, resp, 1, out)
}

// sampleWindows keeps up to fitSamples evenly spaced windows of a build for
// the fit sub-layers.
func sampleWindows(s *timeseries.Series, tuples []view.Tuple, h int, key string, out *tracedOut) {
	vs := s.Values()
	step := max(1, len(tuples)/fitSamples)
	for i := 0; i < len(tuples); i += step {
		end := s.IndexOfTime(tuples[i].T)
		if end < h {
			continue
		}
		w := append([]float64(nil), vs[end-h:end]...)
		if key == "kalman_garch" {
			out.kalmanWindows = append(out.kalmanWindows, w)
		} else {
			out.fitWindows = append(out.fitWindows, w)
		}
	}
}

// traced builds hist and replays the first reads of the seeded plan in
// process, with a live batch after every 20 reads.
func (r *serveRun) traced(rec *recorder, dir string, res *result) (*tracedOut, error) {
	store, err := openStore(dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	db := store.DB()
	series, err := timeseries.New(r.hist)
	if err != nil {
		return nil, err
	}
	if _, err := db.CreateRawTable("campus", "", "", series); err != nil {
		return nil, err
	}
	out := newTracedOut()
	start := time.Now()
	var m0, m1 runtime.MemStats
	if rec != nil {
		runtime.GC()
		runtime.ReadMemStats(&m0)
	}
	if _, _, err := tracedCreateView(rec, db, histStatement, "vt", false, out); err != nil {
		return nil, err
	}
	hist, err := db.View("hist")
	if err != nil {
		return nil, err
	}
	if rec != nil {
		runtime.GC()
		runtime.ReadMemStats(&m1)
		out.heapPerRow = float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(hist.NumRows())
	}
	live, err := newTracedStream(rec, db, "live", "live_pv", r.live[:warmLen], "arma_garch", false, 0)
	if err != nil {
		return nil, err
	}
	next := warmLen
	workers := query.ResolveParallelism(0)
	all := probdb.FusedStats{Expected: true, Prob: true, Count: true}
	for i, op := range r.plan[:min(tracedReads, len(r.plan))] {
		rec.setReq(i)
		if i%20 == 0 {
			if _, err := live.batch(r.live[next:next+batchSize], out); err != nil {
				return nil, err
			}
			next += batchSize
		}
		if err := tracedRead(rec, db, hist, live, op, workers, all, out); err != nil {
			return nil, err
		}
	}
	out.wall = time.Since(start)
	return out, nil
}

// tracedRead answers one read the way its handler does.
func tracedRead(rec *recorder, db *storage.DB, hist *storage.ProbTable, live *tracedStream, op readOp,
	workers int, all probdb.FusedStats, out *tracedOut) error {
	var err error
	switch op.kind {
	case readRangeProb:
		var p float64
		rec.call("probdb.range_prob_at", func() { p, err = probdb.RangeProbAt(hist, op.from, op.lo, op.hi) })
		_, rows := hist.RangeSize(op.from, op.from)
		out.probdbRows += rows
		if err == nil {
			err = encode(rec, server.RangeProbResponse{View: "hist", Lo: op.lo, Hi: op.hi, T: &op.from, Prob: &p}, 1, out)
		}
	case readTopK:
		at := max(live.first, live.latest-op.back)
		var rows []view.Row
		rec.call("probdb.topk_at", func() { rows, err = probdb.TopKAt(live.table, at, topK) })
		out.probdbRows += omegaN
		if err == nil {
			err = encode(rec, server.TopKResponse{View: "live_pv", T: at, K: topK, Rows: rowsJSON(rows)}, len(rows), out)
		}
	case readSeries:
		var fr *probdb.FusedResult
		to := op.from + seriesTuples - 1
		rec.call("probdb.fused_series", func() { fr, _, err = probdb.FusedSeries(hist, op.from, to, op.lo, op.hi, all, workers) })
		_, rows := hist.RangeSize(op.from, to)
		out.probdbRows += rows
		if err == nil {
			resp := server.SeriesResponse{View: "hist", Lo: &op.lo, Hi: &op.hi, Count: &fr.Count,
				Expected: timeValues(fr.Expected), Prob: timeValues(fr.Prob)}
			err = encode(rec, resp, 2*len(fr.Expected), out)
		}
	default:
		var stmt query.Stmt
		rec.call("query.parse", func() { stmt, err = query.Parse(op.selectText()) })
		if err != nil {
			return err
		}
		var qr *query.Result
		rec.call("query.exec", func() { qr, err = query.ExecStmtWith(db, stmt, query.Options{Parallelism: 0}) })
		if err == nil {
			out.scannedRows += qr.Stats.Rows
			out.resultRows += len(qr.Rows)
			err = encode(rec, server.QueryResponse{Kind: qr.Kind, Columns: qr.Columns, Rows: qr.Rows}, len(qr.Rows), out)
		}
	}
	return err
}

func timeValues(pts []probdb.TimeSeriesPoint) []server.TimeValueJSON {
	out := make([]server.TimeValueJSON, len(pts))
	for i, p := range pts {
		out[i] = server.TimeValueJSON{T: p.T, Value: p.Value}
	}
	return out
}

// fitSubLayers times the public fit functions density's metrics call, on
// the sampled windows: arma.FitForecast then garch.FitForecast on its
// residuals (ARMA-GARCH), and kalman.FitForecast with KalmanGARCH's default
// EM settings.
func fitSubLayers(rec *recorder, out *tracedOut, res *result) error {
	var armaT, garchT, kalmanT time.Duration
	for _, w := range out.fitWindows {
		var m *arma.Model
		var err error
		t0 := time.Now()
		rec.call("arma.fit_forecast", func() { _, m, err = arma.FitForecast(w, 1, 0) })
		armaT += time.Since(t0)
		if err != nil {
			return err
		}
		resid := m.ResidualsOf(w)[1:]
		t0 = time.Now()
		// A degenerate GARCH fit is an answer here, as in density's
		// fallback to the window variance; only its time matters.
		rec.call("garch.fit_forecast", func() { _, _, _ = garch.FitForecast(resid, 1, 1, nil) })
		garchT += time.Since(t0)
	}
	for _, w := range out.kalmanWindows {
		t0 := time.Now()
		// Timing only: the window already went through KalmanGARCH.Infer.
		rec.call("kalman.fit_forecast", func() { _, _, _ = kalman.FitForecast(w, &kalman.EMSettings{MaxIter: 500, Tol: 1e-12}) })
		kalmanT += time.Since(t0)
	}
	res.setLayer("arma.fit_us", ratio(float64(armaT.Microseconds()), float64(len(out.fitWindows))))
	res.setLayer("garch.fit_us", ratio(float64(garchT.Microseconds()), float64(len(out.fitWindows))))
	res.setLayer("kalman.fit_us", ratio(float64(kalmanT.Microseconds()), float64(len(out.kalmanWindows))))
	return nil
}

// traceLayers runs the workload's in-process pipeline untraced and then
// traced, writes the spans, and derives the span-based per-layer metrics.
func traceLayers(cfg config, wl runner, work string, res *result) error {
	plain, err := wl.traced(nil, filepath.Join(work, "untraced"), res)
	if err != nil {
		return fmt.Errorf("untraced in-process run: %w", err)
	}
	rec := newRecorder()
	out, err := wl.traced(rec, filepath.Join(work, "traced"), res)
	if err != nil {
		return fmt.Errorf("traced in-process run: %w", err)
	}
	wall := time.Since(rec.epoch)
	if err := fitSubLayers(rec, out, res); err != nil {
		return err
	}
	dir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)), rec.spans); err != nil {
		return err
	}

	self := selfTimes(rec.spans)
	for _, l := range tracedLayers {
		res.setLayer("trace.self_ms."+l, ms(self[l]))
	}
	res.setLayer("trace.wall_ms", ms(out.wall))
	res.setLayer("trace.coverage_share", coverage(rec.spans, wall))
	res.setLayer("trace.overhead_share", ratio(float64(out.wall), float64(plain.wall))-1)

	meanUS := func(name string) float64 {
		d, n := sumByName(rec.spans, name)
		return ratio(float64(d)/1e3, float64(n))
	}
	var inferTotal time.Duration
	for _, k := range []string{"arma_garch", "kalman_garch", "cgarch"} {
		name := "density.infer." + k
		res.setLayer("density.infer_us."+k, meanUS(name))
		a, b := rec.allocs(name)
		res.setLayer("density.allocs_per_infer."+k, a)
		res.setLayer("density.bytes_per_infer."+k, b)
	}
	for _, s := range rec.spans {
		if strings.HasPrefix(s.Name, "density.infer.") {
			inferTotal += time.Duration(s.End - s.Start)
		}
	}
	res.setLayer("density.model_share", ratio(float64(inferTotal), float64(out.wall)))
	res.setLayer("query.parse_us", meanUS("query.parse"))
	res.setLayer("query.exec_us", meanUS("query.exec"))
	res.setLayer("query.rows_scanned_per_result_row", ratio(float64(out.scannedRows), float64(out.resultRows)))
	res.setLayer("clean.prepare_us", meanUS("clean.prepare"))
	for _, cached := range []bool{true, false} {
		one, _ := sumByName(rec.spans, generateSpan("view.generate_one", cached))
		bulk, _ := sumByName(rec.spans, generateSpan("view.generate", cached))
		res.setLayer(generateSpan("view.generate_us_per_tuple", cached),
			ratio(float64(one+bulk)/1e3, float64(out.tuples[cached])))
	}
	tuples := out.tuples[true] + out.tuples[false]
	res.setLayer("view.rows_per_tuple", ratio(float64(out.viewRows), float64(tuples)))
	allocsPerTuple, _ := rec.allocs("view.generate")
	res.setLayer("view.allocs_per_tuple", allocsPerTuple)
	res.setLayer("sigmacache.entries", float64(out.cacheEntries))
	res.setLayer("sigmacache.bytes", float64(out.cacheBytes))
	res.setLayer("storage.store_view_ms", meanUS("storage.store_view")/1e3)
	res.setLayer("storage.heap_bytes_per_row", out.heapPerRow)
	var probdbTime time.Duration
	var encodeTime time.Duration
	for _, s := range rec.spans {
		switch {
		case strings.HasPrefix(s.Name, "probdb."):
			probdbTime += time.Duration(s.End - s.Start)
		case s.Name == "server.encode":
			encodeTime += time.Duration(s.End - s.Start)
		}
	}
	res.setLayer("probdb.ns_per_row", ratio(float64(probdbTime), float64(out.probdbRows)))
	res.setLayer("server.encode_us_per_row", ratio(float64(encodeTime)/1e3, float64(out.encodedRows)))
	return nil
}
