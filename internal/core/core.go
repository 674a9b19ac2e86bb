// Package core wires the framework of Fig. 2 together: raw-value tables in
// the storage catalog, dynamic density metrics, the Omega-view builder with
// its sigma-cache, and the SQL-like query surface. It is the integration
// point the public repro package exposes.
//
// Two operating modes follow Section II-A:
//
//   - Offline: Exec runs a probabilistic view generation query (Fig. 7
//     syntax) over stored raw values and materialises a prob_view table.
//   - Online: OpenStream attaches a metric to a raw table; every appended
//     value yields its view rows immediately and extends the materialised
//     view incrementally.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clean"
	"repro/internal/density"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sigmacache"
	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal"
)

// Errors reported by the engine.
var (
	ErrBadArg = errors.New("core: invalid argument")
	// ErrStreamExists reports an attempt to open a second online stream on a
	// source table that already has one.
	ErrStreamExists = errors.New("core: stream already open")
	// ErrStreamNotFound reports a lookup of a stream that was never opened
	// (or has been closed).
	ErrStreamNotFound = errors.New("core: no open stream")
	// ErrOutOfOrder reports an online Step whose timestamp does not exceed
	// the stream's last ingested timestamp. It is a conflict with already
	// accepted state, not a malformed request, so the server maps it to 409
	// (where ErrBadArg maps to 400) and clients can retry with a later
	// timestamp instead of fixing the payload.
	ErrOutOfOrder = errors.New("core: out-of-order timestamp")
)

// Config tunes an Engine.
type Config struct {
	// Parallelism is the worker count for offline view builds (the
	// per-window model fits and the Omega-view generation) and for the
	// chunked read kernels behind EXPECTED, PROB and COUNT:
	// 1 runs sequentially, 0 selects GOMAXPROCS. Results are identical at
	// every setting; only wall-clock time changes.
	Parallelism int

	// DataDir, when non-empty, makes the engine durable: OpenEngine
	// recovers the catalog from this directory and every committed
	// mutation is write-ahead logged before it is acknowledged
	// (internal/durable). Empty keeps the catalog purely in memory.
	DataDir string
	// Fsync syncs the WAL on every commit (durable engines only): each
	// acknowledged mutation survives power loss, not just process death.
	Fsync bool
	// WALFileBytes is the WAL rotation threshold (0: wal default).
	WALFileBytes int64
	// CheckpointBytes triggers a background checkpoint once this many WAL
	// record bytes accumulate. 0 selects the durable default; negative
	// disables automatic checkpoints.
	CheckpointBytes int64
}

// Engine is the framework instance. All methods are safe for concurrent
// use; online streams additionally serialise their own Step calls, so an
// Engine can sit directly behind a network server.
type Engine struct {
	db    *storage.DB
	cfg   Config
	store *durable.Store // nil for a purely in-memory engine

	// par is the live worker count for view generation and parallel read
	// kernels. It starts at cfg.Parallelism and is the one piece of
	// configuration mutable at runtime (SetParallelism), so it is atomic
	// rather than part of the otherwise construction-immutable cfg.
	par atomic.Int64

	mu      sync.Mutex
	streams map[string]*Stream // open streams, keyed by source table
	// execCache accumulates hit/miss counters of the short-lived caches
	// that Exec'd CREATE VIEW ... CACHE statements attach. Only the
	// counters are summed: entry counts and byte sizes are gauges of
	// resident caches, and these are discarded after each build.
	execCache sigmacache.Stats
}

// NewEngine creates an empty engine with the default configuration
// (parallel view generation across all cores).
func NewEngine() *Engine {
	return NewEngineWith(Config{})
}

// NewEngineWith creates an empty engine with an explicit configuration.
// Config.DataDir is ignored here — durability needs the recovery pass of
// OpenEngine.
func NewEngineWith(cfg Config) *Engine {
	e := &Engine{db: storage.NewDB(), cfg: cfg, streams: make(map[string]*Stream)}
	e.par.Store(int64(cfg.Parallelism))
	return e
}

// OpenEngine creates an engine honouring the full configuration. With a
// DataDir it recovers the durable catalog from disk (manifest + segments +
// WAL replay) and returns an engine whose commits are write-ahead logged;
// Close flushes and releases it. Without a DataDir it is NewEngineWith.
func OpenEngine(cfg Config) (*Engine, error) {
	if cfg.DataDir == "" {
		return NewEngineWith(cfg), nil
	}
	store, err := durable.Open(wal.OS(), cfg.DataDir, durable.Options{
		Fsync:           cfg.Fsync,
		WALFileBytes:    cfg.WALFileBytes,
		CheckpointBytes: cfg.CheckpointBytes,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{db: store.DB(), cfg: cfg, store: store, streams: make(map[string]*Stream)}
	e.par.Store(int64(cfg.Parallelism))
	return e, nil
}

// Durable reports whether the engine writes ahead to a data directory.
func (e *Engine) Durable() bool { return e.store != nil }

// Checkpoint flushes the WAL into segment files and trims it (durable
// engines only). The catalog stays fully available throughout.
func (e *Engine) Checkpoint() error {
	if e.store == nil {
		return fmt.Errorf("%w: engine has no data directory", ErrBadArg)
	}
	return e.store.Checkpoint()
}

// Close releases the engine: open streams are closed and, when durable,
// a final checkpoint runs and the store shuts down. The engine must not
// be used afterwards. Safe to call on an in-memory engine (no-op) and
// more than once.
func (e *Engine) Close() error {
	e.mu.Lock()
	streams := make([]*Stream, 0, len(e.streams))
	for _, s := range e.streams {
		streams = append(streams, s)
	}
	e.mu.Unlock()
	for _, s := range streams {
		s.Close()
	}
	if e.store == nil {
		return nil
	}
	return e.store.Close()
}

// SetParallelism changes the worker count for view generation and the
// parallel read kernels (see Config). Safe to call while queries run: the
// count is read atomically per query.
func (e *Engine) SetParallelism(n int) { e.par.Store(int64(n)) }

// Parallelism reports the configured worker count (0 = all cores).
func (e *Engine) Parallelism() int { return int(e.par.Load()) }

// DB exposes the underlying catalog (advanced use).
func (e *Engine) DB() *storage.DB { return e.db }

// RegisterSeries stores a raw-value time series under name with the default
// column names (t, r).
func (e *Engine) RegisterSeries(name string, s *timeseries.Series) error {
	_, err := e.db.CreateRawTable(name, "", "", s)
	return err
}

// RegisterTable stores a raw-value time series with explicit column names.
func (e *Engine) RegisterTable(name, timeCol, valueCol string, s *timeseries.Series) error {
	_, err := e.db.CreateRawTable(name, timeCol, valueCol, s)
	return err
}

// Exec parses and executes a statement (CREATE VIEW ... AS DENSITY ...,
// SELECT, SHOW TABLES, DROP TABLE) against the engine's catalog. CREATE VIEW
// statements materialise their view with the engine's configured parallelism.
func (e *Engine) Exec(q string) (*query.Result, error) {
	return e.finishExec(query.ExecWith(e.db, q, query.Options{Parallelism: e.Parallelism()}))
}

// ExecStmt executes an already-parsed statement (see query.Parse). Callers
// that need to inspect the statement before running it — e.g. the server's
// build admission gate — parse once and hand the AST over instead of
// re-parsing through Exec.
func (e *Engine) ExecStmt(stmt query.Stmt) (*query.Result, error) {
	return e.finishExec(query.ExecStmtWith(e.db, stmt, query.Options{Parallelism: e.Parallelism()}))
}

// ExecBatch parses and executes a semicolon-separated batch of statements.
// Consecutive EXPECTED / PROB / COUNT aggregates over one view, window and
// value range are fused into a single column scan (see query.ExecBatch);
// results are identical to executing the statements one at a time. The
// first failing statement aborts the batch, returning the results completed
// before it alongside the error.
func (e *Engine) ExecBatch(q string) ([]*query.Result, error) {
	results, err := query.ExecBatch(e.db, q, query.Options{Parallelism: e.Parallelism()})
	for _, res := range results {
		e.absorbCacheStats(res)
	}
	return results, err
}

func (e *Engine) finishExec(res *query.Result, err error) (*query.Result, error) {
	if err != nil {
		return nil, err
	}
	e.absorbCacheStats(res)
	return res, nil
}

// absorbCacheStats folds a discarded build cache's hit/miss counters into
// the engine-lifetime totals.
func (e *Engine) absorbCacheStats(res *query.Result) {
	if st := res.CacheStats; st != nil {
		e.mu.Lock()
		e.execCache.Hits += st.Hits
		e.execCache.Misses += st.Misses
		e.mu.Unlock()
		metCachesDiscarded.Inc()
	}
}

// RecoveryStats reports what the durable store replayed when the engine
// opened; ok is false for a purely in-memory engine.
func (e *Engine) RecoveryStats() (stats durable.RecoveryStats, ok bool) {
	if e.store == nil {
		return durable.RecoveryStats{}, false
	}
	return e.store.RecoveryStats(), true
}

// View fetches a materialised probabilistic view.
func (e *Engine) View(name string) (*storage.ProbTable, error) {
	return e.db.View(name)
}

// StreamConfig configures an online pipeline.
type StreamConfig struct {
	// Source is the raw table that receives the streamed values.
	Source string
	// ViewName is the probabilistic view extended on every step.
	ViewName string
	// Metric is the dynamic density metric (nil selects ARMA(1,0)-GARCH(1,1)).
	Metric density.Metric
	// H is the sliding-window length (0 selects query.DefaultWindow).
	H int
	// Omega holds the view parameters.
	Omega view.Omega
	// SigmaRange optionally enables the sigma-cache for the online mode:
	// because the query runs forever, the cache must be sized up front for
	// an expected [Min, Max] volatility band. Values outside the band fall
	// back to direct computation (still correct, just slower).
	SigmaRange *SigmaRange
	// Parallelism overrides the engine's view-generation worker count for
	// this stream's builder (0 inherits the engine setting). Online steps
	// are single-tuple, so this matters only for bulk operations on the
	// stream's builder (e.g. backfilling the view over stored history).
	Parallelism int
	// Clean optionally enables C-GARCH cleaning of the stream (Section V).
	Clean *CleanStreamConfig
}

// SigmaRange is an expected volatility band with a Hellinger constraint.
type SigmaRange struct {
	Min, Max           float64
	DistanceConstraint float64
}

// CleanStreamConfig enables C-GARCH cleaning (Section V) on an online
// stream: raw values outside the metric's kappa-sigma bounds are marked
// erroneous and replaced with the inferred value before entering the model
// window, and runs longer than OCMax trigger trend re-adjustment through the
// Successive Variance Reduction filter.
type CleanStreamConfig struct {
	// OCMax is the trend-change run length (paper guideline: twice the
	// longest expected error burst).
	OCMax int
	// SVMax is the SVR filter's variance threshold; learn it from a clean
	// sample with clean.LearnSVMax.
	SVMax float64
}

// Stream is a live online pipeline. Step calls serialise on an internal
// lock, so a Stream may be driven from multiple goroutines (e.g. competing
// network requests); callers that need a deterministic ingest order must
// still provide it themselves.
type Stream struct {
	engine  *Engine
	cfg     StreamConfig
	builder *view.Builder
	online  *view.OnlineBuilder // plain path (no cleaning)
	proc    *clean.Processor    // C-GARCH path (cleaning enabled)
	table   *storage.ProbTable
	metric  density.Metric
	cache   *sigmacache.Cache

	mu     sync.Mutex // serialises Step; guards lastT, steps
	lastT  int64      // out-of-order watermark, seeded from the source table
	steps  int64
	closed bool
}

// OpenStream starts the online mode on a registered raw table. The table
// must already hold at least H values (the warm-up window); subsequent
// values arrive through Step. At most one stream may be open per source
// table; Close releases the slot.
func (e *Engine) OpenStream(cfg StreamConfig) (*Stream, error) {
	n, err := e.db.RawLen(cfg.Source)
	if err != nil {
		return nil, err
	}
	metric := cfg.Metric
	if metric == nil {
		metric, err = density.NewARMAGARCH(1, 0)
		if err != nil {
			return nil, err
		}
	}
	h := cfg.H
	if h == 0 {
		h = query.DefaultWindow
	}
	if h < metric.MinWindow() {
		h = metric.MinWindow()
	}
	if n < h {
		return nil, fmt.Errorf("%w: table %q holds %d values; warm-up needs %d",
			ErrBadArg, cfg.Source, n, h)
	}
	if cfg.ViewName == "" {
		return nil, fmt.Errorf("%w: empty view name", ErrBadArg)
	}

	builder, err := view.NewBuilder(cfg.Omega)
	if err != nil {
		return nil, err
	}
	p := cfg.Parallelism
	if p == 0 {
		p = e.Parallelism()
	}
	builder.Parallelism = query.ResolveParallelism(p)
	var cache *sigmacache.Cache
	if sr := cfg.SigmaRange; sr != nil {
		cache, err = sigmacache.New(sigmacache.Config{
			Delta:              cfg.Omega.Delta,
			N:                  cfg.Omega.N,
			DistanceConstraint: sr.DistanceConstraint,
		}, sr.Min, sr.Max)
		if err != nil {
			return nil, err
		}
		builder.Cache = cache
	}

	// Warm up from the last H stored values (copied under the catalog lock,
	// so concurrent appends to other tables cannot tear the window).
	warm, err := e.db.RawTail(cfg.Source, h)
	if err != nil {
		return nil, err
	}

	stream := &Stream{engine: e, cfg: cfg, builder: builder, metric: metric, cache: cache}
	// The stream continues the stored series, so its out-of-order watermark
	// starts at the table's last timestamp: a stale very first Step is
	// rejected with ErrOutOfOrder like every later one, never with the raw
	// append's unsorted error.
	if stream.lastT, err = e.db.LastRawTime(cfg.Source); err != nil {
		return nil, err
	}
	if cc := cfg.Clean; cc != nil {
		proc, err := clean.NewProcessor(clean.Config{
			Metric: metric, H: h, OCMax: cc.OCMax, SVMax: cc.SVMax,
		}, warm)
		if err != nil {
			return nil, err
		}
		stream.proc = proc
	} else {
		online, err := view.NewOnlineBuilder(metric, h, builder, warm)
		if err != nil {
			return nil, err
		}
		stream.online = online
	}

	table := &storage.ProbTable{
		Name:       cfg.ViewName,
		Source:     cfg.Source,
		MetricName: metric.Name(),
		Omega:      cfg.Omega,
	}

	// Fail fast on an obvious duplicate before touching the catalog.
	e.mu.Lock()
	if _, dup := e.streams[cfg.Source]; dup {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: table %q", ErrStreamExists, cfg.Source)
	}
	e.mu.Unlock()

	if err := e.db.StoreView(table); err != nil {
		return nil, err
	}
	stream.table = table

	// Register only the fully initialised stream: once it is visible in the
	// registry a concurrent ingest request may Step it immediately. Re-check
	// the slot in case another open won the race since the pre-check.
	e.mu.Lock()
	if _, dup := e.streams[cfg.Source]; dup {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: table %q", ErrStreamExists, cfg.Source)
	}
	e.streams[cfg.Source] = stream
	e.mu.Unlock()
	return stream, nil
}

// Stream returns the open stream on a source table.
func (e *Engine) Stream(source string) (*Stream, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.streams[source]
	if !ok {
		return nil, fmt.Errorf("%w: table %q", ErrStreamNotFound, source)
	}
	return s, nil
}

// StreamInfo describes one open stream for monitoring surfaces.
type StreamInfo struct {
	Source   string
	ViewName string
	Metric   string
	Steps    int64
	Cache    sigmacache.Stats
	// Shards is the per-shard breakdown of Cache (nil when the stream has
	// no sigma-cache attached).
	Shards []sigmacache.ShardStat
}

// Streams lists the open streams sorted by source table.
func (e *Engine) Streams() []StreamInfo {
	e.mu.Lock()
	streams := make([]*Stream, 0, len(e.streams))
	for _, s := range e.streams {
		streams = append(streams, s)
	}
	e.mu.Unlock()
	out := make([]StreamInfo, 0, len(streams))
	for _, s := range streams {
		out = append(out, StreamInfo{
			Source:   s.cfg.Source,
			ViewName: s.cfg.ViewName,
			Metric:   s.metric.Name(),
			Steps:    s.Steps(),
			Cache:    s.CacheStats(),
			Shards:   s.ShardStats(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// AggregateCacheStats sums sigma-cache effectiveness across the engine's
// caches. Hits and Misses are cumulative counters covering open streams and
// every past Exec-attached cache; Entries and ApproxBytes are gauges of the
// caches currently resident (open streams only — build caches are discarded
// with their builder).
func (e *Engine) AggregateCacheStats() sigmacache.Stats {
	e.mu.Lock()
	total := e.execCache
	streams := make([]*Stream, 0, len(e.streams))
	for _, s := range e.streams {
		streams = append(streams, s)
	}
	e.mu.Unlock()
	for _, s := range streams {
		st := s.CacheStats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Entries += st.Entries
		total.ApproxBytes += st.ApproxBytes
	}
	return total
}

// StepResult augments view rows with the C-GARCH cleaning outcome.
type StepResult struct {
	Rows []view.Row
	// Cleaned is the value admitted into the model window (equals the raw
	// value unless cleaning replaced it).
	Cleaned float64
	// Erroneous reports whether the raw value was marked erroneous.
	Erroneous bool
	// TrendChange reports whether trend re-adjustment fired at this step.
	TrendChange bool
}

// Step ingests one raw value: it is appended to the source table, the
// density is inferred (after C-GARCH cleaning when enabled), and the
// generated view rows are appended to the materialised view and returned.
func (s *Stream) Step(p timeseries.Point) ([]view.Row, error) {
	res, err := s.StepDetailed(p)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// StepDetailed is Step plus the cleaning outcome.
//
// A Step is atomic: either the raw point is stored, the model state advances
// and the view rows are appended, or an error leaves every piece of state —
// raw table, model window, materialised view — untouched. The model step is
// prepared first without committing (both paths expose a Prepare/commit
// split), then the raw point is appended, and only after that success do the
// model and the view commit. No state change ever needs compensating, so a
// concurrent snapshot or offline build can never observe a point that a
// failed step later retracts, and the view is always a subset of the raw
// table.
func (s *Stream) StepDetailed(p timeseries.Point) (*StepResult, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("%w: stream on %q is closed", ErrBadArg, s.cfg.Source)
	}
	if p.T <= s.lastT {
		metOutOfOrder.Inc()
		return nil, fmt.Errorf("%w: t=%d after t=%d", ErrOutOfOrder, p.T, s.lastT)
	}
	out, commit, err := s.prepare(p)
	if err != nil {
		metStepErrors.Inc()
		return nil, err
	}
	// Raw point and view rows commit as one unit — on a durable engine a
	// single WAL record, written before this returns, so an acknowledged
	// step is never half-recovered.
	cspan := obs.StartSpan(metCommitStage)
	if err := s.engine.db.CommitStep(s.cfg.Source, p, s.table, out.Rows); err != nil {
		cspan.End()
		// The stream's own watermark starts at the table's last timestamp,
		// so an unsorted rejection here means a concurrent direct write
		// moved the raw table ahead — a conflict, not a malformed request.
		if errors.Is(err, timeseries.ErrUnsorted) {
			metOutOfOrder.Inc()
			return nil, fmt.Errorf("%w: %v", ErrOutOfOrder, err)
		}
		metStepErrors.Inc()
		return nil, err
	}
	cspan.End()
	commit()
	s.lastT = p.T
	s.steps++
	metSteps.Inc()
	obs.ObserveSince(metStepSeconds, start)
	return out, nil
}

// prepare feeds one point through the model (C-GARCH processor or plain
// online builder) and generates its view rows without committing any model
// state; the returned commit advances the window. Every fallible stage runs
// before any state changes.
func (s *Stream) prepare(p timeseries.Point) (*StepResult, func(), error) {
	if s.proc != nil {
		st, commit, err := s.proc.Prepare(p.V)
		if err != nil {
			return nil, nil, err
		}
		inf := st.Inference
		vspan := obs.StartSpan(metViewStage)
		rows, err := s.builder.GenerateOne(view.Tuple{
			T: p.T, RHat: inf.RHat, Sigma: inf.Sigma, Dist: inf.Dist,
		})
		vspan.End()
		if err != nil {
			return nil, nil, err
		}
		return &StepResult{Rows: rows, Cleaned: st.Cleaned, Erroneous: st.Erroneous, TrendChange: st.TrendChange}, commit, nil
	}
	rows, commit, err := s.online.Prepare(p.T, p.V)
	if err != nil {
		return nil, nil, err
	}
	return &StepResult{Rows: rows, Cleaned: p.V}, commit, nil
}

// Steps reports how many values the stream has ingested.
func (s *Stream) Steps() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.steps
}

// Source returns the raw table the stream ingests into.
func (s *Stream) Source() string { return s.cfg.Source }

// ViewName returns the materialised view the stream extends.
func (s *Stream) ViewName() string { return s.cfg.ViewName }

// Close releases the stream's slot on its source table. The materialised
// view stays in the catalog; further Step calls fail with ErrBadArg.
func (s *Stream) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.engine.mu.Lock()
	if s.engine.streams[s.cfg.Source] == s {
		delete(s.engine.streams, s.cfg.Source)
	}
	s.engine.mu.Unlock()
}

// CacheStats reports sigma-cache effectiveness (zero Stats when no cache is
// attached).
func (s *Stream) CacheStats() sigmacache.Stats {
	if s.cache == nil {
		return sigmacache.Stats{}
	}
	return s.cache.Stats()
}

// ShardStats reports the per-shard sigma-cache breakdown (nil when no
// cache is attached).
func (s *Stream) ShardStats() []sigmacache.ShardStat {
	if s.cache == nil {
		return nil
	}
	return s.cache.ShardStats()
}

// MetricName returns the active metric's name.
func (s *Stream) MetricName() string { return s.metric.Name() }
