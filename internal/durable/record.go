// Package durable is the crash-safe storage engine behind the catalog: a
// write-ahead log (internal/wal) that records every committed mutation
// before it is acknowledged, time-partitioned immutable segment files
// (internal/segment) the log is checkpointed into, and a recovery path
// that reconstructs exactly the acknowledged state from manifest +
// segments + log replay.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal"
)

// ErrBadRecord reports a WAL payload that does not decode as a record.
// The record framing already catches torn and corrupt bytes via CRC, so a
// bad record means a version mismatch or a software bug — recovery stops
// rather than guessing.
var ErrBadRecord = errors.New("durable: malformed record")

// Record kinds, one per storage.CommitLog method — except StoreView,
// which logs a header record followed by continuation records.
const (
	recCreateRaw byte = iota + 1
	recAppendRaw
	// recStoreView is the single-record view written by earlier versions.
	// Replay still reads it, as a header that carries every row.
	recStoreView
	recAppendRows
	recStep
	recDrop
	recReset
	// recViewBegin opens a stored view: its meta, its total row count and
	// the first rows. recViewRows records carry the rest, in order.
	recViewBegin
	recViewRows
)

// viewChunkBytes bounds the payload of each record of a stored view, so a
// view of any size logs as records far below wal.MaxRecordBytes. Tests
// shrink it to run the multi-record path on a few hundred rows.
var viewChunkBytes = 1 << 20

// record is the decoded form of one WAL payload; which fields are
// meaningful depends on kind.
type record struct {
	kind     byte
	name     string // table the record targets (raw or view)
	timeCol  string
	valueCol string
	source   string
	metric   string
	omega    view.Omega
	prior    int // view row count before an appendRows batch
	total    int // rows of the whole view, for a view header
	pt       timeseries.Point
	pts      []timeseries.Point
	rows     []view.Row
	viewName string // step: the view receiving rows
}

// Encoders build each record in a buffer of exactly its size, with the
// first wal.HeaderBytes reserved for the frame header Log.Append fills
// in place. The size helpers below mirror the append helpers byte for
// byte.

func uvarintBytes(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func varintBytes(v int64) int { return uvarintBytes(uint64(v<<1) ^ uint64(v>>63)) }

func strBytes(s string) int { return uvarintBytes(uint64(len(s))) + len(s) }

const pointBytes = 16

// rowBytes is the encoded size of a row with the given lambda: an 8-byte
// T, the varint lambda and three 8-byte floats.
func rowBytes(lambda int64) int { return 32 + varintBytes(lambda) }

func rowBatchBytes(rows []view.Row) int {
	n := uvarintBytes(uint64(len(rows)))
	for i := range rows {
		n += rowBytes(int64(rows[i].Lambda))
	}
	return n
}

// newRecord returns an empty record of kind whose payload (the kind byte
// included) is exactly payload bytes: the frame header is reserved, the
// kind written, and the capacity exact.
func newRecord(kind byte, payload int) []byte {
	dst := make([]byte, wal.HeaderBytes+1, wal.HeaderBytes+payload)
	dst[wal.HeaderBytes] = kind
	return dst
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendPoint(dst []byte, p timeseries.Point) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.T))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.V))
}

func appendPoints(dst []byte, pts []timeseries.Point) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	for _, p := range pts {
		dst = appendPoint(dst, p)
	}
	return dst
}

func appendRow(dst []byte, t, lambda int64, lo, hi, prob float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t))
	dst = binary.AppendVarint(dst, lambda)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(lo))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(hi))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(prob))
}

func appendRowBatch(dst []byte, rows []view.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for i := range rows {
		r := &rows[i]
		dst = appendRow(dst, r.T, int64(r.Lambda), r.Lo, r.Hi, r.Prob)
	}
	return dst
}

// appendColBatch appends rows [from, from+n) of b as a row batch. gi is
// the index of the group holding row from; the index of the group holding
// the batch's last row is returned, for the next batch.
func appendColBatch(dst []byte, b *storage.Block, gi, from, n int) ([]byte, int) {
	dst = binary.AppendUvarint(dst, uint64(n))
	for i := from; i < from+n; i++ {
		for b.Groups[gi].Off+b.Groups[gi].Len <= i {
			gi++
		}
		dst = appendRow(dst, b.Groups[gi].T, int64(b.Lambda[i]), b.Lo[i], b.Hi[i], b.Prob[i])
	}
	return dst, gi
}

func encodeCreateRaw(name, timeCol, valueCol string, pts []timeseries.Point) []byte {
	dst := newRecord(recCreateRaw, 1+strBytes(name)+strBytes(timeCol)+strBytes(valueCol)+
		uvarintBytes(uint64(len(pts)))+len(pts)*pointBytes)
	dst = appendStr(dst, name)
	dst = appendStr(dst, timeCol)
	dst = appendStr(dst, valueCol)
	return appendPoints(dst, pts)
}

func encodeAppendRaw(name string, p timeseries.Point) []byte {
	dst := newRecord(recAppendRaw, 1+strBytes(name)+pointBytes)
	dst = appendStr(dst, name)
	return appendPoint(dst, p)
}

// viewMetaBytes is the size of a view header's fields before its rows.
func viewMetaBytes(meta storage.ViewMeta, total int) int {
	return strBytes(meta.Name) + strBytes(meta.Source) + strBytes(meta.MetricName) +
		8 + varintBytes(int64(meta.Omega.N)) + uvarintBytes(uint64(total))
}

func appendViewMeta(dst []byte, meta storage.ViewMeta, total int) []byte {
	dst = appendStr(dst, meta.Name)
	dst = appendStr(dst, meta.Source)
	dst = appendStr(dst, meta.MetricName)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(meta.Omega.Delta))
	dst = binary.AppendVarint(dst, int64(meta.Omega.N))
	return binary.AppendUvarint(dst, uint64(total))
}

// chunkRows returns how many leading rows, whose lambdas are given, fit in
// a row batch of at most budget bytes — always at least one, so every
// record makes progress — and the batch's exact encoded size.
func chunkRows(lambdas []int32, budget int) (n, size int) {
	budget -= binary.MaxVarintLen64 // the batch's count prefix
	for n < len(lambdas) {
		b := rowBytes(int64(lambdas[n]))
		if n > 0 && size+b > budget {
			break
		}
		size += b
		n++
	}
	return n, size + uvarintBytes(uint64(n))
}

// encodeView logs a stored view: a recViewBegin header (meta, total row
// count, first rows) followed by recViewRows continuations, each record's
// payload at most viewChunkBytes. The rows are read in place from the
// columns and written once, into one buffer allocated once — at the exact
// record size for a one-record view, at the record bound otherwise — and
// reused for every record: emit must be done with a record before it
// returns.
func encodeView(meta storage.ViewMeta, b storage.Block, emit func(rec []byte) error) error {
	var buf []byte
	total := b.Len()
	fixed := 1 + viewMetaBytes(meta, total)
	gi, from := 0, 0
	for first := true; first || from < total; first = false {
		n, size := chunkRows(b.Lambda[from:], viewChunkBytes-fixed)
		need := wal.HeaderBytes + fixed + size
		if cap(buf) < need {
			if from+n < total {
				// Continuations follow: size the buffer for the largest.
				need = max(need, wal.HeaderBytes+viewChunkBytes)
			}
			buf = make([]byte, 0, need)
		}
		rec := buf[:wal.HeaderBytes]
		if first {
			rec = append(rec, recViewBegin)
			rec = appendViewMeta(rec, meta, total)
		} else {
			rec = append(rec, recViewRows)
		}
		rec, gi = appendColBatch(rec, &b, gi, from, n)
		if err := emit(rec); err != nil {
			return err
		}
		from += n
		fixed = 1
	}
	return nil
}

func encodeAppendRows(name string, prior int, rows []view.Row) []byte {
	dst := newRecord(recAppendRows, 1+strBytes(name)+uvarintBytes(uint64(prior))+rowBatchBytes(rows))
	dst = appendStr(dst, name)
	dst = binary.AppendUvarint(dst, uint64(prior))
	return appendRowBatch(dst, rows)
}

func encodeStep(source string, p timeseries.Point, viewName string, rows []view.Row) []byte {
	dst := newRecord(recStep, 1+strBytes(source)+pointBytes+strBytes(viewName)+rowBatchBytes(rows))
	dst = appendStr(dst, source)
	dst = appendPoint(dst, p)
	dst = appendStr(dst, viewName)
	return appendRowBatch(dst, rows)
}

func encodeDrop(name string) []byte {
	return appendStr(newRecord(recDrop, 1+strBytes(name)), name)
}

func encodeReset() []byte { return newRecord(recReset, 1) }

// dec is a bounds-checked cursor over one record payload. Every read
// reports failure through ok; decode checks once at the end, so a
// truncated or hostile payload degrades to ErrBadRecord, never a panic
// or an oversized allocation.
type dec struct {
	b  []byte
	ok bool
}

func (d *dec) u8() byte {
	if len(d.b) < 1 {
		d.ok = false
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u64() uint64 {
	if len(d.b) < 8 {
		d.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.ok = false
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.ok = false
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int reads a uvarint that must fit an int.
func (d *dec) int() int {
	v := d.uvarint()
	if v > math.MaxInt {
		d.ok = false
		return 0
	}
	return int(v)
}

func (d *dec) str() string {
	n := d.uvarint()
	if !d.ok || n > uint64(len(d.b)) {
		d.ok = false
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count reads a collection length and rejects one that could not fit in
// the remaining bytes at minSize each — the allocation guard.
func (d *dec) count(minSize int) int {
	n := d.uvarint()
	if !d.ok || n > uint64(len(d.b))/uint64(minSize) {
		d.ok = false
		return 0
	}
	return int(n)
}

func (d *dec) point() timeseries.Point {
	return timeseries.Point{T: int64(d.u64()), V: d.f64()}
}

func (d *dec) points() []timeseries.Point {
	n := d.count(16)
	if !d.ok {
		return nil
	}
	pts := make([]timeseries.Point, n)
	for i := range pts {
		pts[i] = d.point()
	}
	return pts
}

func (d *dec) rowBatch() []view.Row {
	n := d.count(12) // 8-byte T + varint lambda (≥1) + 24 bytes of floats ≥ 12 floor
	if !d.ok {
		return nil
	}
	rows := make([]view.Row, n)
	for i := range rows {
		rows[i] = view.Row{
			T: int64(d.u64()), Lambda: int(d.varint()),
			Lo: d.f64(), Hi: d.f64(), Prob: d.f64(),
		}
	}
	return rows
}

// decodeRecord parses one WAL payload. Trailing bytes are rejected: a
// record is exactly its encoding.
func decodeRecord(b []byte) (record, error) {
	d := &dec{b: b, ok: true}
	r := record{kind: d.u8()}
	switch r.kind {
	case recCreateRaw:
		r.name = d.str()
		r.timeCol = d.str()
		r.valueCol = d.str()
		r.pts = d.points()
	case recAppendRaw:
		r.name = d.str()
		r.pt = d.point()
	case recStoreView, recViewBegin:
		r.name = d.str()
		r.source = d.str()
		r.metric = d.str()
		r.omega.Delta = d.f64()
		r.omega.N = int(d.varint())
		if r.kind == recViewBegin {
			r.total = d.int()
		}
		r.rows = d.rowBatch()
		if r.kind == recStoreView {
			r.total = len(r.rows)
		}
	case recViewRows:
		r.rows = d.rowBatch()
	case recAppendRows:
		r.name = d.str()
		r.prior = int(d.uvarint())
		r.rows = d.rowBatch()
	case recStep:
		r.source = d.str()
		r.pt = d.point()
		r.viewName = d.str()
		r.rows = d.rowBatch()
	case recDrop:
		r.name = d.str()
	case recReset:
	default:
		return record{}, fmt.Errorf("%w: unknown kind %d", ErrBadRecord, r.kind)
	}
	if !d.ok || len(d.b) != 0 {
		return record{}, fmt.Errorf("%w: kind %d", ErrBadRecord, r.kind)
	}
	return r, nil
}
