package storage

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/view"
)

// TimeGroup locates the rows of one timestamp inside a Block's columns:
// positions Off to Off+Len-1 of every column hold exactly the rows with
// timestamp T, in lambda order.
type TimeGroup struct {
	T        int64
	Off, Len int
}

// Cols holds view rows column by column: row i is the Omega range
// (Lo[i], Hi[i]] with index Lambda[i] and probability Prob[i]. The
// timestamp is not a column; it is stored once per tuple, in the
// TimeGroup that spans the row.
type Cols struct {
	Lambda       []int32
	Lo, Hi, Prob []float64
}

// Block is a run of view rows in columns together with the group index
// that addresses them: 28 bytes per row plus 24 per tuple. It is the one
// resident form of a ProbTable's rows, and the layout of a segment file's
// view blocks (T once per group, then lambda and three floats per row).
type Block struct {
	Groups []TimeGroup
	Cols
}

// Len returns the number of rows in the block.
func (b *Block) Len() int { return len(b.Lo) }

// Grow makes room for rows more rows and groups more groups without
// reallocating. Slices that must grow are reallocated at exactly the
// requested capacity, so a block sized up front carries no slack.
func (b *Block) Grow(rows, groups int) {
	b.Groups = growExact(b.Groups, groups)
	b.Lambda = growExact(b.Lambda, rows)
	b.Lo = growExact(b.Lo, rows)
	b.Hi = growExact(b.Hi, rows)
	b.Prob = growExact(b.Prob, rows)
}

func growExact[T any](s []T, n int) []T {
	if n <= cap(s)-len(s) {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// Append adds one row at timestamp t. Rows arrive in ascending timestamp
// order: a row at the last group's timestamp extends that group, any
// other opens a new one.
func (b *Block) Append(t int64, lambda int32, lo, hi, prob float64) {
	if n := len(b.Groups); n > 0 && b.Groups[n-1].T == t {
		b.Groups[n-1].Len++
	} else {
		b.Groups = append(b.Groups, TimeGroup{T: t, Off: len(b.Lo), Len: 1})
	}
	b.Lambda = append(b.Lambda, lambda)
	b.Lo = append(b.Lo, lo)
	b.Hi = append(b.Hi, hi)
	b.Prob = append(b.Prob, prob)
}

// AppendRows appends rows, which continue the block's ascending-timestamp
// order. It adds all of them or, when a lambda does not fit the int32
// column, none and reports ErrBadSchema.
func (b *Block) AppendRows(rows []view.Row) error {
	if err := checkLambdas(rows); err != nil {
		return err
	}
	b.appendRows(rows)
	return nil
}

func (b *Block) appendRows(rows []view.Row) {
	for i := range rows {
		r := &rows[i]
		b.Append(r.T, int32(r.Lambda), r.Lo, r.Hi, r.Prob)
	}
}

// checkLambdas rejects rows whose lambda the int32 column would truncate.
func checkLambdas(rows []view.Row) error {
	for i := range rows {
		if l := rows[i].Lambda; l != int(int32(l)) {
			return fmt.Errorf("%w: row at t=%d has lambda %d outside int32", ErrBadSchema, rows[i].T, l)
		}
	}
	return nil
}

// countGroups returns the number of distinct timestamps in rows, which
// are in ascending-timestamp order.
func countGroups(rows []view.Row) int {
	n := 0
	for i := range rows {
		if i == 0 || rows[i].T != rows[i-1].T {
			n++
		}
	}
	return n
}

// rows builds the rows of the contiguous group span gs as view.Row values.
func (b *Block) rows(gs []TimeGroup) []view.Row {
	out := make([]view.Row, SpanRows(gs))
	k := 0
	for _, g := range gs {
		lam, lo, hi, pr := b.Lambda[g.Off:g.Off+g.Len], b.Lo[g.Off:g.Off+g.Len], b.Hi[g.Off:g.Off+g.Len], b.Prob[g.Off:g.Off+g.Len]
		for i := range lam {
			out[k] = view.Row{T: g.T, Lambda: int(lam[i]), Lo: lo[i], Hi: hi[i], Prob: pr[i]}
			k++
		}
	}
	return out
}

// suffix returns the rows from position from on as a Block that shares the
// columns' backing arrays and owns a copy of the group entries, rebased to
// the suffix and clipped where from splits a group. The columns are
// append-only, so the shared slices stay intact while the table grows; the
// group entries are copied because the last one's Len still grows.
func (b *Block) suffix(from int) Block {
	n := b.Len()
	first := sort.Search(len(b.Groups), func(i int) bool { return b.Groups[i].Off+b.Groups[i].Len > from })
	groups := make([]TimeGroup, len(b.Groups)-first)
	for i, g := range b.Groups[first:] {
		if g.Off < from {
			g.Len -= from - g.Off
			g.Off = from
		}
		g.Off -= from
		groups[i] = g
	}
	return Block{Groups: groups, Cols: Cols{
		Lambda: b.Lambda[from:n:n],
		Lo:     b.Lo[from:n:n],
		Hi:     b.Hi[from:n:n],
		Prob:   b.Prob[from:n:n],
	}}
}

// massSlack is the rounding allowance on a tuple's probability mass.
const massSlack = 1e-9

// verify checks the block's invariants and returns the first violation
// wrapped in ErrInvariant:
//   - the four columns have the same length;
//   - the groups are sorted by timestamp, contiguous and non-empty, and
//     cover every row;
//   - every Lo, Hi and Prob is finite, and Lo <= Hi;
//   - each tuple's probability mass is at most 1 (+1e-9 for rounding).
func (b *Block) verify() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvariant, fmt.Sprintf(format, args...))
	}
	n := len(b.Lo)
	if len(b.Lambda) != n || len(b.Hi) != n || len(b.Prob) != n {
		return bad("columns hold %d/%d/%d/%d values", len(b.Lambda), n, len(b.Hi), len(b.Prob))
	}
	off := 0
	for gi, g := range b.Groups {
		if g.Off != off || g.Len <= 0 {
			return bad("group %d spans [%d, %d), want it to start at %d and be non-empty", gi, g.Off, g.Off+g.Len, off)
		}
		if g.Off+g.Len > n {
			return bad("group %d ends at row %d past the %d rows", gi, g.Off+g.Len, n)
		}
		if gi > 0 && g.T <= b.Groups[gi-1].T {
			return bad("group %d at t=%d does not follow t=%d", gi, g.T, b.Groups[gi-1].T)
		}
		mass := 0.0
		for i := g.Off; i < g.Off+g.Len; i++ {
			lo, hi, pr := b.Lo[i], b.Hi[i], b.Prob[i]
			switch {
			case !finite(lo) || !finite(hi) || !finite(pr):
				return bad("row %d at t=%d holds a non-finite value: lo=%g hi=%g prob=%g", i, g.T, lo, hi, pr)
			case lo > hi:
				return bad("row %d at t=%d has Lo %g above Hi %g", i, g.T, lo, hi)
			}
			mass += pr
		}
		if mass > 1+massSlack {
			return bad("tuple t=%d has probability mass %g", g.T, mass)
		}
		off += g.Len
	}
	if off != n {
		return bad("group index covers %d of %d rows", off, n)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
