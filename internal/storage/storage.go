// Package storage provides the in-memory database substrate of the
// framework: a catalog of raw-value tables (the raw_values table of Fig. 1)
// and materialised probabilistic view tables (prob_view). Tables support
// time-range scans, online appends, CSV import/export and gob snapshots for
// durability. All catalog operations are safe for concurrent use.
package storage

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/timeseries"
	"repro/internal/view"
)

// Errors reported by the catalog.
var (
	ErrNotFound  = errors.New("storage: table not found")
	ErrExists    = errors.New("storage: table already exists")
	ErrBadName   = errors.New("storage: invalid table name")
	ErrBadSchema = errors.New("storage: invalid schema")
)

// CommitLog receives every catalog mutation before it is applied — the
// write-ahead contract. Implementations (internal/durable) append one
// record per call to a WAL; a nil error means the record is recoverable,
// which is what lets the catalog apply the mutation and acknowledge it.
// Calls arrive in the exact order a replay must re-apply them.
type CommitLog interface {
	// CreateRaw records the registration of a raw table with its seed points.
	CreateRaw(name, timeCol, valueCol string, pts []timeseries.Point) error
	// AppendRaw records one appended raw point.
	AppendRaw(name string, p timeseries.Point) error
	// StoreView records the registration (or wholesale replacement) of a view.
	StoreView(meta ViewMeta, rows []view.Row) error
	// AppendRows records a batch of rows appended to a view. prior is the
	// table's row count just before the append: appends are strictly
	// ordered per table, so a replayer compares prior against the
	// recovered table's count to apply each batch exactly once even when
	// a checkpoint already flushed it.
	AppendRows(view string, prior int, rows []view.Row) error
	// Step records one atomic ingest step: a raw point and the view rows
	// it produced, committed together.
	Step(source string, p timeseries.Point, view string, rows []view.Row) error
	// Drop records the removal of a table.
	Drop(name string) error
	// Reset records a wholesale catalog replacement (snapshot load).
	Reset() error
}

// ViewMeta is the identity of a probabilistic view without its rows —
// what the commit log and segment files record alongside the data.
type ViewMeta struct {
	Name       string
	Source     string
	MetricName string
	Omega      view.Omega
}

// RowsLoader materialises a lazily-loaded view's rows (e.g. from a
// segment file). It is called at most once, under the table lock, by the
// first accessor that needs the rows.
type RowsLoader func() ([]view.Row, error)

// RawTable is a raw-value time-series table with named time and value
// columns (e.g. <time, r> per Fig. 2).
type RawTable struct {
	Name     string
	TimeCol  string
	ValueCol string
	Series   *timeseries.Series
}

// ProbTable is a materialised probabilistic view: the tuple-level
// probabilistic database of Definition 2.
//
// A view that backs an online stream grows while readers scan it, so every
// access to Rows after the table is stored in a catalog must go through the
// accessor methods, which serialise on a per-table lock. Readers always see
// a consistent prefix of the appended rows; appends never block readers of
// other tables.
//
// Physical layout: Rows is one flat slice in ascending-timestamp order, with
// all rows of a timestamp (one per Omega range, in lambda order) stored
// contiguously. Alongside it the table maintains a timestamp group index —
// one TimeGroup{T, Off, Len} per distinct timestamp — kept current
// incrementally by AppendRows and built lazily for tables whose Rows were
// assigned directly (offline builds, gob decode, tests). Point and range
// accessors binary-search the index (O(log T) in the number of tuples, not
// rows) and the ForEachGroup iterator walks it in one pass, handing out
// zero-copy row spans.
//
// The table also maintains a columnar (struct-of-arrays) projection of Rows:
// parallel slices colT/colLo/colHi/colProb with colLo[i] == Rows[i].Lo and so
// on. The columns are maintained in lockstep with the group index — extended
// incrementally on append, rebuilt whenever the index is rebuilt — and are
// what the batch aggregate kernels in internal/probdb scan: three contiguous
// float64 streams instead of 40-byte Row structs, no per-row dispatch.
// ForEachGroupCols and RangeCols expose them under the same locking contract
// as ForEachGroup.
type ProbTable struct {
	Name       string
	Source     string // raw table the view was derived from
	MetricName string // dynamic density metric used
	Omega      view.Omega
	Rows       []view.Row

	mu sync.RWMutex // guards Rows + index once the table is shared (gob ignores it)

	// groups is the timestamp group index over Rows[:indexed]; indexed lags
	// len(Rows) only when Rows was assigned directly, and the first accessor
	// to notice catches the index up under the write lock. head remembers
	// the indexed backing array's first element so a wholesale replacement
	// of Rows (not just growth) is detected and triggers a rebuild instead
	// of silently serving stale offsets.
	groups  []TimeGroup
	indexed int
	head    *view.Row

	// Columnar projection of Rows[:indexed], maintained in lockstep with
	// groups by extendIndex: colT[i], colLo[i], colHi[i], colProb[i] mirror
	// Rows[i]. The batch kernels scan these instead of the row structs.
	colT         []int64
	colLo, colHi []float64
	colProb      []float64

	// logger, when set, receives every append before it is applied.
	// Attached while the table sits in a logged catalog, detached on Drop.
	logger CommitLog

	// load defers materialisation of segment-backed rows: until the first
	// access that needs them, the table only knows it has pending rows.
	// A failed load is sticky in loadErr; pending keeps reporting the
	// durable row count so the table does not appear to have shrunk.
	load    RowsLoader
	pending int
	loadErr error
}

// Meta returns the view's identity (everything but the rows). The fields
// are immutable after construction, so no lock is needed.
func (p *ProbTable) Meta() ViewMeta {
	return ViewMeta{Name: p.Name, Source: p.Source, MetricName: p.MetricName, Omega: p.Omega}
}

// SetLoader arms lazy materialisation: the table reports n rows but
// fetches them through load only on first access that needs them. Used by
// recovery to open segment-backed views without reading the segments.
func (p *ProbTable) SetLoader(n int, load RowsLoader) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.load = load
	p.pending = n
	p.loadErr = nil
	metIndexGroups.Add(-float64(len(p.groups)))
	p.groups, p.indexed, p.head = nil, 0, nil
	p.colT, p.colLo, p.colHi, p.colProb = nil, nil, nil, nil
}

// LoadErr reports a failed lazy materialisation. Accessors on a table in
// this state return empty results; appends and ForEachGroup surface the
// error.
func (p *ProbTable) LoadErr() error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.loadErr
}

func (p *ProbTable) setLogger(l CommitLog) {
	p.mu.Lock()
	p.logger = l
	p.mu.Unlock()
}

// TimeGroup locates the rows of one timestamp inside the flat row slice:
// Rows[Off : Off+Len] are exactly the rows with timestamp T, in lambda order.
type TimeGroup struct {
	T        int64
	Off, Len int
}

// indexStale reports whether the group index lags Rows: a lazy load is
// pending, rows were appended, or Rows was shrunk or replaced wholesale
// (different backing array). Caller holds the lock (read or write).
func (p *ProbTable) indexStale() bool {
	return p.load != nil || p.indexed != len(p.Rows) || (p.indexed > 0 && p.head != &p.Rows[0])
}

// extendIndex catches the group index and the columnar projection up with
// Rows. Caller holds the write lock. Appends are incremental: only rows past
// the indexed watermark are visited, so maintaining index and columns during
// online ingest is O(batch); a shrink or a backing-array change (growth
// realloc or wholesale replacement) triggers a full rebuild — the same
// linear cost the reallocation itself just paid.
func (p *ProbTable) extendIndex() {
	if load := p.load; load != nil {
		// Materialise the pending lazy load exactly once; a failure is
		// sticky and leaves pending in place so the row count holds.
		p.load = nil
		rows, err := load()
		if err != nil {
			p.loadErr = err
		} else {
			p.Rows = append(rows, p.Rows...)
			p.pending = 0
		}
		metIndexLazyLoads.Inc()
	}
	if p.indexed > len(p.Rows) || (p.indexed > 0 && p.head != &p.Rows[0]) {
		metIndexGroups.Add(-float64(len(p.groups)))
		metIndexRebuilds.Inc()
		p.groups, p.indexed = nil, 0
		p.colT, p.colLo, p.colHi, p.colProb = p.colT[:0], p.colLo[:0], p.colHi[:0], p.colProb[:0]
	}
	groupsBefore := len(p.groups)
	for i := p.indexed; i < len(p.Rows); i++ {
		r := &p.Rows[i]
		t := r.T
		p.colT = append(p.colT, t)
		p.colLo = append(p.colLo, r.Lo)
		p.colHi = append(p.colHi, r.Hi)
		p.colProb = append(p.colProb, r.Prob)
		if n := len(p.groups); n > 0 && p.groups[n-1].T == t {
			p.groups[n-1].Len++
		} else {
			p.groups = append(p.groups, TimeGroup{T: t, Off: i, Len: 1})
		}
	}
	p.indexed = len(p.Rows)
	if len(p.Rows) > 0 {
		p.head = &p.Rows[0]
	} else {
		p.head = nil
	}
	if d := len(p.groups) - groupsBefore; d != 0 {
		metIndexGroups.Add(float64(d))
	}
}

// rlockIndexed takes the read lock with the group index guaranteed current,
// upgrading to the write lock first when Rows was assigned directly (e.g. by
// an offline build or a snapshot load). Callers must release with mu.RUnlock.
func (p *ProbTable) rlockIndexed() {
	p.mu.RLock()
	for p.indexStale() {
		p.mu.RUnlock()
		p.mu.Lock()
		p.extendIndex()
		p.mu.Unlock()
		p.mu.RLock()
	}
}

// AppendRows extends the materialised view (online-mode incremental
// generation). Rows must continue the ascending-timestamp order. When the
// table sits in a logged catalog the batch is logged before it is applied;
// a logging failure leaves the table unchanged.
func (p *ProbTable) AppendRows(rows []view.Row) error {
	if len(rows) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.appendLocked(rows, true)
}

// appendLocked logs (optionally) and applies one row batch. Caller holds
// the write lock.
func (p *ProbTable) appendLocked(rows []view.Row, logIt bool) error {
	p.extendIndex() // materialise a pending lazy load; catch up direct assignment
	if p.loadErr != nil {
		return fmt.Errorf("view %q: %w", p.Name, p.loadErr)
	}
	if logIt && p.logger != nil {
		if err := p.logger.AppendRows(p.Name, len(p.Rows), rows); err != nil {
			return err
		}
	}
	p.Rows = append(p.Rows, rows...)
	// The append preserves the indexed prefix even when it reallocates the
	// backing array, so refresh the identity watermark before extending:
	// otherwise the realloc would look like a wholesale Rows replacement and
	// trigger a full rebuild under the write lock.
	p.head = &p.Rows[0]
	p.extendIndex()
	metRowsAppended.Add(int64(len(rows)))
	return nil
}

// NumRows returns the current row count. Rows pending behind a lazy
// loader are counted without triggering the load, so listing a catalog of
// segment-backed views stays cheap.
func (p *ProbTable) NumRows() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.pending + len(p.Rows)
}

// NumTimes returns the current count of distinct timestamps (tuples).
func (p *ProbTable) NumTimes() int {
	p.rlockIndexed()
	defer p.mu.RUnlock()
	return len(p.groups)
}

// LastTime returns the view's most recent timestamp, or ok=false for an
// empty view.
func (p *ProbTable) LastTime() (t int64, ok bool) {
	p.rlockIndexed()
	defer p.mu.RUnlock()
	if len(p.groups) == 0 {
		return 0, false
	}
	return p.groups[len(p.groups)-1].T, true
}

// SnapshotRows returns a copy of all rows, isolated from later appends,
// materialising a pending lazy load first. A failed load yields an empty
// copy — callers that must distinguish use snapshotRows.
func (p *ProbTable) SnapshotRows() []view.Row {
	out, _ := p.snapshotRows()
	return out
}

func (p *ProbTable) snapshotRows() ([]view.Row, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.extendIndex()
	if p.loadErr != nil {
		return nil, fmt.Errorf("view %q: %w", p.Name, p.loadErr)
	}
	out := make([]view.Row, len(p.Rows))
	copy(out, p.Rows)
	return out, nil
}

// groupSpan returns the index positions [lo, hi) of the groups with
// timestamp in [tLo, tHi]; an inverted range (tLo > tHi) yields an empty
// span, never hi < lo — callers slice groups[lo:hi] directly. Caller holds
// the lock (read or write).
func (p *ProbTable) groupSpan(tLo, tHi int64) (lo, hi int) {
	lo = sort.Search(len(p.groups), func(i int) bool { return p.groups[i].T >= tLo })
	hi = sort.Search(len(p.groups), func(i int) bool { return p.groups[i].T > tHi })
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// RowsRange returns a copy of the rows with timestamp in [tLo, tHi].
func (p *ProbTable) RowsRange(tLo, tHi int64) []view.Row {
	p.rlockIndexed()
	defer p.mu.RUnlock()
	lo, hi := p.groupSpan(tLo, tHi)
	if lo >= hi {
		return []view.Row{}
	}
	first, last := p.groups[lo], p.groups[hi-1]
	out := make([]view.Row, last.Off+last.Len-first.Off)
	copy(out, p.Rows[first.Off:last.Off+last.Len])
	return out
}

// RowsAt returns the view rows for timestamp t in lambda order.
func (p *ProbTable) RowsAt(t int64) []view.Row {
	p.rlockIndexed()
	defer p.mu.RUnlock()
	lo, hi := p.groupSpan(t, t)
	if lo >= hi {
		return nil
	}
	g := p.groups[lo]
	out := make([]view.Row, g.Len)
	copy(out, p.Rows[g.Off:g.Off+g.Len])
	return out
}

// Times returns the distinct timestamps present in the view, ascending.
func (p *ProbTable) Times() []int64 {
	p.rlockIndexed()
	defer p.mu.RUnlock()
	if len(p.groups) == 0 {
		return nil
	}
	out := make([]int64, len(p.groups))
	for i, g := range p.groups {
		out[i] = g.T
	}
	return out
}

// RangeSize reports how many distinct timestamps (groups) and rows fall in
// [tLo, tHi] — the scan size a range query will touch — at O(log T) cost.
// Query explain output uses it to report work without re-walking the range.
func (p *ProbTable) RangeSize(tLo, tHi int64) (groups, rows int) {
	p.rlockIndexed()
	defer p.mu.RUnlock()
	lo, hi := p.groupSpan(tLo, tHi)
	if lo >= hi {
		return 0, 0
	}
	first, last := p.groups[lo], p.groups[hi-1]
	return hi - lo, last.Off + last.Len - first.Off
}

// GroupsRange returns a copy of the group index entries with timestamp in
// [tLo, tHi]: the physical layout of the requested range, without the rows.
func (p *ProbTable) GroupsRange(tLo, tHi int64) []TimeGroup {
	p.rlockIndexed()
	defer p.mu.RUnlock()
	lo, hi := p.groupSpan(tLo, tHi)
	out := make([]TimeGroup, hi-lo)
	copy(out, p.groups[lo:hi])
	return out
}

// ForEachGroup calls fn once per distinct timestamp in [tLo, tHi], ascending,
// passing the timestamp's rows as a zero-copy span of the table's backing
// array. The whole range is visited in one indexed pass under a single read
// lock: no per-timestamp search, no row copies.
//
// The span is valid only for the duration of the call — fn must not retain or
// mutate it, and must not call back into the table (the lock is held). A
// non-nil error from fn stops the iteration and is returned.
func (p *ProbTable) ForEachGroup(tLo, tHi int64, fn func(t int64, rows []view.Row) error) error {
	p.rlockIndexed()
	defer p.mu.RUnlock()
	if p.loadErr != nil {
		return fmt.Errorf("view %q: %w", p.Name, p.loadErr)
	}
	lo, hi := p.groupSpan(tLo, tHi)
	for _, g := range p.groups[lo:hi] {
		if err := fn(g.T, p.Rows[g.Off:g.Off+g.Len:g.Off+g.Len]); err != nil {
			return err
		}
	}
	return nil
}

// GroupCols is the columnar (struct-of-arrays) projection of one timestamp's
// rows: Lo[i], Hi[i], Prob[i] describe the tuple's i-th Omega range, in the
// same order as the row layout. Rows is the identical span in row form, for
// consumers that also need per-row identity (Lambda). All slices are
// zero-copy views of the table's backing arrays.
type GroupCols struct {
	T            int64
	Lo, Hi, Prob []float64
	Rows         []view.Row
}

// Cols is the whole-table columnar projection handed to RangeCols: parallel
// slices over every row of the table, addressed through TimeGroup spans
// (Lo[g.Off : g.Off+g.Len] are the lows of group g, and so on).
type Cols struct {
	T            []int64
	Lo, Hi, Prob []float64
	Rows         []view.Row
}

// ForEachGroupCols is ForEachGroup in columnar form: fn is called once per
// distinct timestamp in [tLo, tHi], ascending, with the timestamp's rows as
// struct-of-arrays column slices. Same contract as ForEachGroup: one indexed
// pass under a single read lock, spans valid only for the duration of the
// call, no callbacks into the table.
func (p *ProbTable) ForEachGroupCols(tLo, tHi int64, fn func(g GroupCols) error) error {
	p.rlockIndexed()
	defer p.mu.RUnlock()
	if p.loadErr != nil {
		return fmt.Errorf("view %q: %w", p.Name, p.loadErr)
	}
	lo, hi := p.groupSpan(tLo, tHi)
	for _, g := range p.groups[lo:hi] {
		end := g.Off + g.Len
		gc := GroupCols{
			T:    g.T,
			Lo:   p.colLo[g.Off:end:end],
			Hi:   p.colHi[g.Off:end:end],
			Prob: p.colProb[g.Off:end:end],
			Rows: p.Rows[g.Off:end:end],
		}
		if err := fn(gc); err != nil {
			return err
		}
	}
	return nil
}

// RangeCols is the bulk form of ForEachGroupCols: fn is called exactly once,
// under the read lock, with the group-index entries for [tLo, tHi] (possibly
// empty) and the whole-table columns. Batch kernels use it to run their
// entire double loop — groups outside, column scan inside — with zero
// per-group dispatch. The slices are valid only for the duration of the
// call; fn must not retain or mutate them, nor call back into the table.
func (p *ProbTable) RangeCols(tLo, tHi int64, fn func(groups []TimeGroup, c Cols) error) error {
	p.rlockIndexed()
	defer p.mu.RUnlock()
	if p.loadErr != nil {
		return fmt.Errorf("view %q: %w", p.Name, p.loadErr)
	}
	lo, hi := p.groupSpan(tLo, tHi)
	return fn(p.groups[lo:hi], Cols{
		T:    p.colT,
		Lo:   p.colLo,
		Hi:   p.colHi,
		Prob: p.colProb,
		Rows: p.Rows,
	})
}

// DB is the catalog.
type DB struct {
	mu   sync.RWMutex
	raw  map[string]*RawTable
	prob map[string]*ProbTable
	log  CommitLog // when set, every mutation is logged before it is applied
}

// SetCommitLog attaches a commit log to the catalog: every later mutation
// is logged before it is applied (write-ahead), in the exact order a
// replay must re-apply it. Attaching also wires every resident view table,
// so appends through table handles are logged too. Pass nil to detach —
// the recovery replayer does, so re-applying logged records does not
// re-log them.
func (db *DB) SetCommitLog(l CommitLog) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.log = l
	for _, p := range db.prob {
		p.setLogger(l)
	}
}

// NewDB returns an empty catalog.
func NewDB() *DB {
	return &DB{raw: make(map[string]*RawTable), prob: make(map[string]*ProbTable)}
}

func validName(name string) error {
	if name == "" {
		return ErrBadName
	}
	for _, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("%w: %q", ErrBadName, name)
		}
	}
	return nil
}

// CreateRawTable registers a raw-value table. Column names default to "t"
// and "r" when empty.
func (db *DB) CreateRawTable(name, timeCol, valueCol string, s *timeseries.Series) (*RawTable, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("%w: nil series", ErrBadSchema)
	}
	if timeCol == "" {
		timeCol = "t"
	}
	if valueCol == "" {
		valueCol = "r"
	}
	if err := validName(timeCol); err != nil {
		return nil, err
	}
	if err := validName(valueCol); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.raw[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if _, dup := db.prob[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if db.log != nil {
		pts, err := seriesPoints(s)
		if err != nil {
			return nil, err
		}
		if err := db.log.CreateRaw(name, timeCol, valueCol, pts); err != nil {
			return nil, err
		}
	}
	t := &RawTable{Name: name, TimeCol: timeCol, ValueCol: valueCol, Series: s}
	db.raw[name] = t
	return t, nil
}

// seriesPoints copies every point of a series.
func seriesPoints(s *timeseries.Series) ([]timeseries.Point, error) {
	pts := make([]timeseries.Point, 0, s.Len())
	for i := 0; i < s.Len(); i++ {
		p, err := s.At(i)
		if err != nil {
			return nil, err
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// validateAppend rejects the point Series.Append would reject (out of
// order or non-finite), without mutating anything — the pre-log check that
// keeps the WAL free of records the in-memory table refuses.
func (t *RawTable) validateAppend(p timeseries.Point) error {
	return t.Series.CheckAppend(p)
}

// RawTable fetches a raw table by name.
func (db *DB) RawTable(name string) (*RawTable, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.raw[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return t, nil
}

// AppendRaw appends a point to a raw table (online ingestion). The point
// is validated, then logged, then applied: a rejected point never reaches
// the commit log, and a logging failure leaves the table unchanged.
func (db *DB) AppendRaw(name string, p timeseries.Point) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.raw[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err := t.validateAppend(p); err != nil {
		return err
	}
	if db.log != nil {
		if err := db.log.AppendRaw(name, p); err != nil {
			return err
		}
	}
	if err := t.Series.Append(p); err != nil {
		return err
	}
	metRawAppends.Inc()
	return nil
}

// CommitStep commits one ingest step atomically: the raw point and the
// view rows it produced go into a single logged record, and both are
// applied under the catalog lock before the step is acknowledged. On
// recovery the step replays as a unit — an acked step never resurfaces
// with its point but not its rows.
//
// The whole step runs under the catalog write lock, which is also what a
// checkpoint capture takes: a capture therefore sees both sides of the
// step or neither, so the "flushed to segments" / "still in the WAL"
// boundary is exact.
func (db *DB) CommitStep(source string, pt timeseries.Point, table *ProbTable, rows []view.Row) error {
	if table == nil {
		return fmt.Errorf("%w: nil view", ErrBadSchema)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.raw[source]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, source)
	}
	if err := t.validateAppend(pt); err != nil {
		return err
	}
	table.mu.Lock()
	defer table.mu.Unlock()
	table.extendIndex() // surface a failed lazy load before logging anything
	if table.loadErr != nil {
		return fmt.Errorf("view %q: %w", table.Name, table.loadErr)
	}
	if db.log != nil {
		if err := db.log.Step(source, pt, table.Name, rows); err != nil {
			return err
		}
	}
	if err := t.Series.Append(pt); err != nil {
		return err
	}
	metRawAppends.Inc()
	if len(rows) == 0 {
		return nil
	}
	return table.appendLocked(rows, false)
}

// LastRawTime returns the timestamp of a raw table's most recent point —
// the watermark an online stream seeds its out-of-order check from, so a
// stale ingest is rejected before any state changes.
func (db *DB) LastRawTime(name string) (int64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.raw[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	n := t.Series.Len()
	if n == 0 {
		return 0, fmt.Errorf("%w: table %q", timeseries.ErrEmpty, name)
	}
	p, err := t.Series.At(n - 1)
	if err != nil {
		return 0, err
	}
	return p.T, nil
}

// SnapshotSeries returns a full copy of a raw table's series, taken under
// the catalog lock so it is isolated from concurrent appends. Offline view
// generation reads from such snapshots, which is what lets ingest proceed
// while an expensive Omega-view build runs.
func (db *DB) SnapshotSeries(name string) (*timeseries.Series, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.raw[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return t.Series.Clone(), nil
}

// ScanRaw returns a copy of the raw points with timestamp in [tLo, tHi],
// isolated from concurrent appends.
func (db *DB) ScanRaw(name string, tLo, tHi int64) (*timeseries.Series, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.raw[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return t.Series.TimeRange(tLo, tHi), nil
}

// RawLen returns the current length of a raw table.
func (db *DB) RawLen(name string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.raw[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return t.Series.Len(), nil
}

// RawTail returns the last h values of a raw table (the stream warm-up
// window), isolated from concurrent appends.
func (db *DB) RawTail(name string, h int) ([]float64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.raw[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	n := t.Series.Len()
	if h < 0 || h > n {
		return nil, fmt.Errorf("%w: tail of %d values; table %q holds %d", ErrBadSchema, h, name, n)
	}
	out := make([]float64, h)
	for i := 0; i < h; i++ {
		p, err := t.Series.At(n - h + i)
		if err != nil {
			return nil, err
		}
		out[i] = p.V
	}
	return out, nil
}

// StoreView registers (or replaces) a probabilistic view table.
func (db *DB) StoreView(p *ProbTable) error {
	if p == nil {
		return fmt.Errorf("%w: nil view", ErrBadSchema)
	}
	if err := validName(p.Name); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.raw[p.Name]; dup {
		return fmt.Errorf("%w: %q is a raw table", ErrExists, p.Name)
	}
	if db.log != nil {
		rows, err := p.snapshotRows() // materialises a lazy load; the record needs the rows
		if err != nil {
			return err
		}
		if err := db.log.StoreView(p.Meta(), rows); err != nil {
			return err
		}
	}
	p.setLogger(db.log)
	db.prob[p.Name] = p
	return nil
}

// View fetches a probabilistic view by name.
func (db *DB) View(name string) (*ProbTable, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	p, ok := db.prob[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return p, nil
}

// Drop removes a table (raw or view) by name.
func (db *DB) Drop(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.raw[name]; ok {
		if db.log != nil {
			if err := db.log.Drop(name); err != nil {
				return err
			}
		}
		delete(db.raw, name)
		return nil
	}
	if p, ok := db.prob[name]; ok {
		if db.log != nil {
			if err := db.log.Drop(name); err != nil {
				return err
			}
		}
		p.setLogger(nil) // a dropped table's appends are no longer logged
		delete(db.prob, name)
		return nil
	}
	return fmt.Errorf("%w: %q", ErrNotFound, name)
}

// Reset empties the catalog. On a logged catalog a single Reset record is
// logged first; the recovery replayer applies it by calling Reset on a
// detached catalog.
func (db *DB) Reset() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.log != nil {
		if err := db.log.Reset(); err != nil {
			return err
		}
	}
	for _, p := range db.prob {
		p.setLogger(nil)
	}
	db.raw = make(map[string]*RawTable)
	db.prob = make(map[string]*ProbTable)
	return nil
}

// TableInfo describes one catalog entry.
type TableInfo struct {
	Name string
	Kind string // "raw" or "view"
	Rows int
}

// List returns catalog entries sorted by name.
func (db *DB) List() []TableInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]TableInfo, 0, len(db.raw)+len(db.prob))
	for name, t := range db.raw {
		out = append(out, TableInfo{Name: name, Kind: "raw", Rows: t.Series.Len()})
	}
	for name, p := range db.prob {
		out = append(out, TableInfo{Name: name, Kind: "view", Rows: p.NumRows()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// snapshot is the gob wire format.
type snapshot struct {
	Raw  []rawSnapshot
	Prob []*ProbTable
}

type rawSnapshot struct {
	Name     string
	TimeCol  string
	ValueCol string
	Points   []timeseries.Point
}

// Save serialises the whole catalog with gob. It is safe to call while
// appends and reads are in flight: raw tables are copied under the catalog
// lock and view rows under each table's lock, so every serialised table is a
// consistent prefix of its live counterpart. The gob encoding itself runs on
// the copies, outside any lock.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	var snap snapshot
	var err error
	for _, t := range db.raw {
		var pts []timeseries.Point
		pts, err = seriesPoints(t.Series)
		if err != nil {
			break
		}
		snap.Raw = append(snap.Raw, rawSnapshot{
			Name: t.Name, TimeCol: t.TimeCol, ValueCol: t.ValueCol, Points: pts,
		})
	}
	if err == nil {
		for _, p := range db.prob {
			var rows []view.Row
			rows, err = p.snapshotRows()
			if err != nil {
				break
			}
			snap.Prob = append(snap.Prob, &ProbTable{
				Name:       p.Name,
				Source:     p.Source,
				MetricName: p.MetricName,
				Omega:      p.Omega,
				Rows:       rows,
			})
		}
	}
	db.mu.RUnlock()
	if err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// SaveFile writes a snapshot atomically: the gob stream goes to a temporary
// file in the target directory which is renamed over path only after a
// successful write, so a crash mid-snapshot never corrupts the previous one.
func (db *DB) SaveFile(path string) (int64, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	if err := db.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	// Flush before the rename commits the snapshot: a power failure after
	// an un-synced rename could publish a truncated file over the good
	// previous snapshot.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return info.Size(), nil
}

// LoadFile replaces the catalog contents with the snapshot stored at path.
func (db *DB) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return db.Load(f)
}

// Load replaces the catalog contents with a snapshot produced by Save.
// On a logged catalog the whole replacement is re-logged (a Reset record
// followed by the loaded tables), so tables restored from a gob snapshot
// are as durable — and their later appends as logged — as tables built in
// place. See TestIndexAfterLoadFileAppendRows for the append-after-load
// contract this upholds.
func (db *DB) Load(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return err
	}
	raw := make(map[string]*RawTable, len(snap.Raw))
	for _, rs := range snap.Raw {
		s, err := timeseries.New(rs.Points)
		if err != nil {
			return err
		}
		raw[rs.Name] = &RawTable{Name: rs.Name, TimeCol: rs.TimeCol, ValueCol: rs.ValueCol, Series: s}
	}
	prob := make(map[string]*ProbTable, len(snap.Prob))
	for _, p := range snap.Prob {
		prob[p.Name] = p
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.log != nil {
		if err := db.log.Reset(); err != nil {
			return err
		}
		for _, rs := range snap.Raw {
			if err := db.log.CreateRaw(rs.Name, rs.TimeCol, rs.ValueCol, rs.Points); err != nil {
				return err
			}
		}
		for _, p := range snap.Prob {
			if err := db.log.StoreView(p.Meta(), p.Rows); err != nil {
				return err
			}
		}
	}
	// The decoded tables are not shared yet, so the loggers can be set
	// without taking their locks.
	for _, p := range prob {
		p.logger = db.log
	}
	db.raw = raw
	db.prob = prob
	return nil
}

// RawState is a checkpoint capture of one raw table: its schema and the
// points past the caller's durable watermark.
type RawState struct {
	Name     string
	TimeCol  string
	ValueCol string
	From     int // points already durable in segments
	Points   []timeseries.Point
	Total    int
}

// ViewState is a checkpoint capture of one view table: its identity and
// the rows past the caller's durable watermark. A table whose lazy load
// is still pending (or failed: Err) captures From == Total and no rows —
// everything resident is durable already.
type ViewState struct {
	Meta  ViewMeta
	From  int // rows already durable in segments
	Rows  []view.Row
	Total int
	Err   error
}

// CaptureCheckpoint is the atomic snapshot step of a checkpoint: under
// the catalog write lock — with every commit quiesced — it first calls
// rotate (the WAL rotation) and then captures each table's suffix past
// the caller's durable watermarks. The boundary is exact: every mutation
// logged before the rotation point is covered by the captured state, and
// every mutation logged after it is not. Captures list every table, even
// ones with nothing new to flush, so the caller's manifest records the
// full catalog. Results are sorted by name.
func (db *DB) CaptureCheckpoint(rotate func() error, rawFrom, viewFrom func(name string) int) ([]RawState, []ViewState, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if rotate != nil {
		if err := rotate(); err != nil {
			return nil, nil, err
		}
	}
	raws := make([]RawState, 0, len(db.raw))
	for name, t := range db.raw {
		total := t.Series.Len()
		from := rawFrom(name)
		if from < 0 {
			from = 0
		}
		if from > total {
			from = total
		}
		pts := make([]timeseries.Point, 0, total-from)
		for i := from; i < total; i++ {
			p, err := t.Series.At(i)
			if err != nil {
				return nil, nil, err
			}
			pts = append(pts, p)
		}
		raws = append(raws, RawState{
			Name: name, TimeCol: t.TimeCol, ValueCol: t.ValueCol,
			From: from, Points: pts, Total: total,
		})
	}
	views := make([]ViewState, 0, len(db.prob))
	for name, p := range db.prob {
		views = append(views, p.captureState(viewFrom(name)))
	}
	sort.Slice(raws, func(i, j int) bool { return raws[i].Name < raws[j].Name })
	sort.Slice(views, func(i, j int) bool { return views[i].Meta.Name < views[j].Meta.Name })
	return raws, views, nil
}

// captureState copies the table's suffix past from for a checkpoint.
func (p *ProbTable) captureState(from int) ViewState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := ViewState{Meta: p.Meta()}
	if p.load != nil || p.loadErr != nil {
		// Rows are not resident: everything the table holds is already
		// durable in segments, so there is nothing new to flush.
		st.Total = p.pending
		st.From = st.Total
		st.Err = p.loadErr
		return st
	}
	total := len(p.Rows)
	if from < 0 {
		from = 0
	}
	if from > total {
		from = total
	}
	rows := make([]view.Row, total-from)
	copy(rows, p.Rows[from:])
	st.From, st.Rows, st.Total = from, rows, total
	return st
}
