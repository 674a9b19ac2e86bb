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
	// ErrInvariant reports a view table whose rows, group index or columns
	// break the invariants ProbTable.Check verifies.
	ErrInvariant = errors.New("storage: view invariant violated")
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
	// StoreView records the registration (or wholesale replacement) of a
	// view with the rows in b. b is the table's own storage: the log only
	// reads it, and only during the call.
	StoreView(meta ViewMeta, b Block) error
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

// RowsLoader materialises a lazily-loaded view (e.g. from segment files):
// it appends the view's rows, in order, to dst. It is called at most
// once, under the table lock, by the first accessor that needs the rows.
type RowsLoader func(dst *Block) error

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
// access after the table is stored in a catalog goes through the accessor
// methods, which serialise on a per-table lock. Readers always see a
// consistent prefix of the appended rows; appends never block readers of
// other tables.
//
// Physical layout: the rows live only in a Block — a timestamp group index
// (one TimeGroup{T, Off, Len} per distinct timestamp, ascending) over an
// int32 Lambda column and float64 Lo, Hi and Prob columns, all rows of a
// timestamp contiguous in lambda order. Point and range accessors
// binary-search the group index (O(log T) in the number of tuples, not
// rows); the batch kernels in internal/probdb scan the columns through
// ForEachGroupCols and RangeCols; the row accessors build view.Row values
// from the columns on the way out.
//
// The columns are append-only once the table is shared: appends write only
// past their length, a reallocation leaves the old arrays untouched, and no
// code writes a value in place. A prefix taken under the lock therefore
// stays valid after the lock is released, which is what lets checkpoint
// capture and Save hand columns to their writers without copying them.
type ProbTable struct {
	Name       string
	Source     string // raw table the view was derived from
	MetricName string // dynamic density metric used
	Omega      view.Omega

	mu sync.RWMutex // gob ignores it

	// Rows is construction input only: a table built with Rows set keeps
	// them there until StoreView or its first access moves them into blk
	// and sets Rows to nil. Gob Save and Load carry the rows in this field.
	Rows []view.Row

	blk Block

	// logger, when set, receives every append before it is applied.
	// Attached while the table sits in a logged catalog, detached on Drop.
	logger CommitLog

	// load defers materialisation of segment-backed rows: until the first
	// access that needs them, the table only knows it has pending rows.
	// A failed or rejected load is sticky in loadErr; pending keeps
	// reporting the durable row count so the table does not appear to have
	// shrunk.
	load    RowsLoader
	pending int
	loadErr error
}

// NewProbTable returns a view table holding b's rows. The table takes b
// over: the caller must not use it afterwards.
func NewProbTable(meta ViewMeta, b Block) *ProbTable {
	return &ProbTable{Name: meta.Name, Source: meta.Source, MetricName: meta.MetricName, Omega: meta.Omega, blk: b}
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
	metIndexGroups.Add(-float64(len(p.blk.Groups)))
	p.blk, p.Rows = Block{}, nil
}

// LoadErr reports a failed lazy materialisation. Accessors on a table in
// this state return empty results; appends and the column scans surface
// the error.
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

// stale reports whether rows wait outside the columns: a lazy load is
// pending or construction-input Rows are set. Caller holds the lock
// (read or write).
func (p *ProbTable) stale() bool {
	return p.loadErr == nil && (p.load != nil || len(p.Rows) > 0)
}

// materialiseLocked moves every row into the columns: it runs a pending
// lazy load exactly once, verifying what it loaded, and moves
// construction-input Rows into the columns. A failure is sticky in loadErr
// and returned. Caller holds the write lock.
func (p *ProbTable) materialiseLocked() error {
	if load := p.load; load != nil {
		p.load = nil
		metIndexLazyLoads.Inc()
		err := load(&p.blk)
		if err == nil && p.blk.Len() != p.pending {
			err = fmt.Errorf("%w: loaded %d rows, %d expected", ErrInvariant, p.blk.Len(), p.pending)
		}
		if err == nil {
			err = p.blk.verify()
		}
		if err != nil {
			p.loadErr, p.blk = err, Block{}
		} else {
			p.pending = 0
			metIndexGroups.Add(float64(len(p.blk.Groups)))
		}
	}
	if len(p.Rows) > 0 && p.loadErr == nil {
		if err := checkLambdas(p.Rows); err != nil {
			p.loadErr = err
		} else {
			groups := len(p.blk.Groups)
			p.blk.Grow(len(p.Rows), countGroups(p.Rows))
			p.blk.appendRows(p.Rows)
			p.Rows = nil
			metIndexGroups.Add(float64(len(p.blk.Groups) - groups))
		}
	}
	if p.loadErr != nil {
		return fmt.Errorf("view %q: %w", p.Name, p.loadErr)
	}
	return nil
}

// rlockIndexed takes the read lock with every row in the columns,
// upgrading to the write lock first to materialise a pending load or
// construction-input Rows. Callers must release with mu.RUnlock.
func (p *ProbTable) rlockIndexed() {
	p.mu.RLock()
	for p.stale() {
		p.mu.RUnlock()
		p.mu.Lock()
		p.materialiseLocked()
		p.mu.Unlock()
		p.mu.RLock()
	}
}

// AppendRows extends the materialised view (online-mode incremental
// generation). Rows must continue the ascending-timestamp order. When the
// table sits in a logged catalog the batch is logged before it is applied;
// a logging failure or a rejected row leaves the table unchanged.
func (p *ProbTable) AppendRows(rows []view.Row) error {
	if len(rows) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.admitLocked(rows); err != nil {
		return err
	}
	if p.logger != nil {
		if err := p.logger.AppendRows(p.Name, p.blk.Len(), rows); err != nil {
			return err
		}
	}
	p.applyLocked(rows)
	return nil
}

// admitLocked readies the table for an append of rows and rejects a batch
// the columns cannot hold, before anything is logged. Caller holds the
// write lock.
func (p *ProbTable) admitLocked(rows []view.Row) error {
	if err := p.materialiseLocked(); err != nil {
		return err
	}
	return checkLambdas(rows)
}

// applyLocked appends an admitted batch. Caller holds the write lock.
func (p *ProbTable) applyLocked(rows []view.Row) {
	groups := len(p.blk.Groups)
	p.blk.appendRows(rows)
	if d := len(p.blk.Groups) - groups; d != 0 {
		metIndexGroups.Add(float64(d))
	}
	metRowsAppended.Add(int64(len(rows)))
}

// NumRows returns the current row count. Rows pending behind a lazy
// loader are counted without triggering the load, so listing a catalog of
// segment-backed views stays cheap.
func (p *ProbTable) NumRows() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.pending + p.blk.Len() + len(p.Rows)
}

// NumTimes returns the current count of distinct timestamps (tuples).
func (p *ProbTable) NumTimes() int {
	p.rlockIndexed()
	defer p.mu.RUnlock()
	return len(p.blk.Groups)
}

// LastTime returns the view's most recent timestamp, or ok=false for an
// empty view.
func (p *ProbTable) LastTime() (t int64, ok bool) {
	p.rlockIndexed()
	defer p.mu.RUnlock()
	if len(p.blk.Groups) == 0 {
		return 0, false
	}
	return p.blk.Groups[len(p.blk.Groups)-1].T, true
}

// SnapshotRows returns a copy of all rows, isolated from later appends,
// materialising a pending lazy load first. A failed load yields no rows.
func (p *ProbTable) SnapshotRows() []view.Row {
	p.rlockIndexed()
	defer p.mu.RUnlock()
	if p.blk.Len() == 0 {
		return nil
	}
	return p.blk.rows(p.blk.Groups)
}

// resident materialises the table and returns all of its rows as a Block
// that shares the columns (see Block.suffix). Callers only read it.
func (p *ProbTable) resident() (Block, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.materialiseLocked(); err != nil {
		return Block{}, err
	}
	return p.blk.suffix(0), nil
}

// logStore materialises the table and, when l is set, hands its columns
// to the commit log in place, with no copy. It holds the table's write
// lock while the log encodes them, so not even a misused handle to an
// already shared table can append meanwhile. Without a log, a table whose
// lazy load is pending stays lazy: recovery stores segment-backed views
// that way.
func (p *ProbTable) logStore(l CommitLog) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if l == nil && p.load != nil {
		return nil
	}
	if err := p.materialiseLocked(); err != nil || l == nil {
		return err
	}
	return l.StoreView(p.Meta(), p.blk)
}

// Check verifies the table's invariants, materialising a pending lazy load
// first, and returns the first violation wrapped in ErrInvariant: those of
// Block.verify, and NumRows counting exactly the rows present. Recovery
// tests run it on every view they recover; a segment-loaded view is
// verified on its first load anyway.
func (p *ProbTable) Check() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.materialiseLocked(); err != nil {
		return err
	}
	err := p.blk.verify()
	if err == nil && p.pending != 0 {
		err = fmt.Errorf("%w: NumRows counts %d rows, %d are present", ErrInvariant, p.pending+p.blk.Len(), p.blk.Len())
	}
	if err != nil {
		return fmt.Errorf("view %q: %w", p.Name, err)
	}
	return nil
}

// groupSpan returns the index positions [lo, hi) of the groups with
// timestamp in [tLo, tHi]; an inverted range (tLo > tHi) yields an empty
// span, never hi < lo — callers slice groups[lo:hi] directly. Caller holds
// the lock (read or write).
func (p *ProbTable) groupSpan(tLo, tHi int64) (lo, hi int) {
	groups := p.blk.Groups
	lo = sort.Search(len(groups), func(i int) bool { return groups[i].T >= tLo })
	hi = sort.Search(len(groups), func(i int) bool { return groups[i].T > tHi })
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
	return p.blk.rows(p.blk.Groups[lo:hi])
}

// RowsAt returns the view rows for timestamp t in lambda order.
func (p *ProbTable) RowsAt(t int64) []view.Row {
	p.rlockIndexed()
	defer p.mu.RUnlock()
	lo, hi := p.groupSpan(t, t)
	if lo >= hi {
		return nil
	}
	return p.blk.rows(p.blk.Groups[lo:hi])
}

// Times returns the distinct timestamps present in the view, ascending.
func (p *ProbTable) Times() []int64 {
	p.rlockIndexed()
	defer p.mu.RUnlock()
	if len(p.blk.Groups) == 0 {
		return nil
	}
	out := make([]int64, len(p.blk.Groups))
	for i, g := range p.blk.Groups {
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
	return hi - lo, SpanRows(p.blk.Groups[lo:hi])
}

// GroupsRange returns a copy of the group index entries with timestamp in
// [tLo, tHi]: the physical layout of the requested range, without the rows.
func (p *ProbTable) GroupsRange(tLo, tHi int64) []TimeGroup {
	p.rlockIndexed()
	defer p.mu.RUnlock()
	lo, hi := p.groupSpan(tLo, tHi)
	out := make([]TimeGroup, hi-lo)
	copy(out, p.blk.Groups[lo:hi])
	return out
}

// GroupCols is one timestamp's rows in columns: Lambda[i], Lo[i], Hi[i],
// Prob[i] describe the tuple's i-th Omega range, in lambda order. All
// slices are zero-copy views of the table's columns.
type GroupCols struct {
	T int64
	Cols
}

// ForEachGroupCols calls fn once per distinct timestamp in [tLo, tHi],
// ascending, with the timestamp's rows as column slices. The whole range
// is visited in one indexed pass under a single read lock. The slices are
// valid only for the duration of the call — fn must not retain or mutate
// them, and must not call back into the table (the lock is held). A
// non-nil error from fn stops the iteration and is returned.
func (p *ProbTable) ForEachGroupCols(tLo, tHi int64, fn func(g GroupCols) error) error {
	p.rlockIndexed()
	defer p.mu.RUnlock()
	if p.loadErr != nil {
		return fmt.Errorf("view %q: %w", p.Name, p.loadErr)
	}
	lo, hi := p.groupSpan(tLo, tHi)
	c := &p.blk.Cols
	for _, g := range p.blk.Groups[lo:hi] {
		end := g.Off + g.Len
		gc := GroupCols{T: g.T, Cols: Cols{
			Lambda: c.Lambda[g.Off:end:end],
			Lo:     c.Lo[g.Off:end:end],
			Hi:     c.Hi[g.Off:end:end],
			Prob:   c.Prob[g.Off:end:end],
		}}
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
	return fn(p.blk.Groups[lo:hi], p.blk.Cols)
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
	if err := table.admitLocked(rows); err != nil {
		return err
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
	table.applyLocked(rows)
	return nil
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

// StoreView registers (or replaces) a probabilistic view table, moving
// construction-input Rows into the columns first; a lambda outside int32
// is rejected with ErrBadSchema. On a logged catalog the rows are logged
// straight from the table's columns: nothing is copied, and the table is
// visible to readers only once the whole log sequence has been appended.
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
	if err := p.logStore(db.log); err != nil {
		return err
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

// Save serialises the whole catalog with gob, each view as a table whose
// Rows carry all of its rows. It is safe to call while appends and reads
// are in flight: raw tables are copied under the catalog lock and each
// view's column prefix is taken under the table's lock, so every
// serialised table is a consistent prefix of its live counterpart. The
// view rows are built from those prefixes, and gob-encoded, outside any
// lock.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	var snap snapshot
	var blocks []Block
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
			var b Block
			b, err = p.resident()
			if err != nil {
				break
			}
			snap.Prob = append(snap.Prob, &ProbTable{
				Name:       p.Name,
				Source:     p.Source,
				MetricName: p.MetricName,
				Omega:      p.Omega,
			})
			blocks = append(blocks, b)
		}
	}
	db.mu.RUnlock()
	if err != nil {
		return err
	}
	for i, p := range snap.Prob {
		p.Rows = blocks[i].rows(blocks[i].Groups)
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
// Each view's rows move into its columns before anything is logged; a
// lambda outside int32 rejects the whole snapshot with ErrBadSchema.
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
	// The decoded tables are not shared yet: no table lock is needed to
	// materialise them, log them, or set their loggers.
	prob := make(map[string]*ProbTable, len(snap.Prob))
	for _, p := range snap.Prob {
		if err := p.materialiseLocked(); err != nil {
			return err
		}
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
			if err := db.log.StoreView(p.Meta(), p.blk); err != nil {
				return err
			}
		}
	}
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
// the rows past the caller's durable watermark. Suffix shares the table's
// append-only columns (see Block.suffix); callers only read it. A table
// whose lazy load is still pending, or failed, captures From == Total and
// no rows: everything it holds is durable in segments already.
type ViewState struct {
	Meta   ViewMeta
	From   int // rows already durable in segments
	Suffix Block
	Total  int
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

// captureState captures the table's suffix past from for a checkpoint,
// sharing the columns rather than copying them, so the segment writer can
// read them after the lock is released.
func (p *ProbTable) captureState(from int) ViewState {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := ViewState{Meta: p.Meta()}
	if p.load != nil || p.loadErr != nil {
		// Rows are not resident: everything the table holds is already
		// durable in segments, so there is nothing new to flush.
		st.Total = p.pending
		st.From = st.Total
		return st
	}
	total := p.blk.Len()
	from = min(max(from, 0), total)
	st.From, st.Suffix, st.Total = from, p.blk.suffix(from), total
	return st
}
