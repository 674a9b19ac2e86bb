package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"repro/internal/server"
	"repro/internal/timeseries"
	"repro/internal/view"
)

// Model and view parameters shared by the served workloads and their
// in-process references.
const (
	window     = 90   // H, the sliding window of every metric
	omegaDelta = 0.05 // Omega range width
	omegaN     = 300  // Omega ranges per tuple of the ingest/build views
	histN      = 100  // Omega ranges per tuple of serve-mixed's hist view
	warmLen    = 200  // points a stream's table holds before streaming starts
	batchSize  = 10   // points per ingest request
	sigmaMin   = 1e-3 // online sigma-cache band
	sigmaMax   = 50
	cacheDist  = 0.01 // sigma-cache Hellinger constraint H'
	ocMax      = 7    // C-GARCH trend-change run length (the paper's setting)
	massSlack  = 1e-9 // floating-point slack on a tuple's probability mass
)

// omega is the ingest/build view's Omega.
var omega = view.Omega{Delta: omegaDelta, N: omegaN}

// csvBody renders points as the CSV a PUT /tables request carries, with
// every value printed exactly.
func csvBody(pts []timeseries.Point) []byte {
	var b strings.Builder
	b.WriteString("t,value\n")
	for _, p := range pts {
		b.WriteString(strconv.FormatInt(p.T, 10))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(p.V, 'g', -1, 64))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

func pointsJSON(pts []timeseries.Point) []server.PointJSON {
	out := make([]server.PointJSON, len(pts))
	for i, p := range pts {
		out[i] = server.PointJSON{T: p.T, V: p.V}
	}
	return out
}

// checkRows checks a served tuple set: every row finite with Lo <= Hi,
// n rows per timestamp, consecutive per timestamp, and each tuple's
// probability mass at most 1. It returns the distinct timestamps in order.
func checkRows(rows []server.RowJSON, n int) ([]int64, error) {
	var ts []int64
	var mass float64
	count := 0
	for i, r := range rows {
		if !finite(r.Lo) || !finite(r.Hi) || !finite(r.Prob) || r.Lo > r.Hi || r.Prob < 0 {
			return nil, fmt.Errorf("row %d (t=%d): lo=%v hi=%v prob=%v", i, r.T, r.Lo, r.Hi, r.Prob)
		}
		if i == 0 || r.T != rows[i-1].T {
			if i > 0 && count != n {
				return nil, fmt.Errorf("t=%d has %d rows, want %d", rows[i-1].T, count, n)
			}
			for _, t := range ts {
				if t == r.T {
					return nil, fmt.Errorf("rows of t=%d are not contiguous", r.T)
				}
			}
			ts = append(ts, r.T)
			mass, count = 0, 0
		}
		mass += r.Prob
		count++
		if mass > 1+massSlack {
			return nil, fmt.Errorf("t=%d has probability mass %v > 1", r.T, mass)
		}
	}
	if len(rows) > 0 && count != n {
		return nil, fmt.Errorf("t=%d has %d rows, want %d", rows[len(rows)-1].T, count, n)
	}
	return ts, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// digest fingerprints one tuple's rows bit for bit.
func digest(rows []server.RowJSON) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, r := range rows {
		put(uint64(r.T))
		put(uint64(r.Lambda))
		put(math.Float64bits(r.Lo))
		put(math.Float64bits(r.Hi))
		put(math.Float64bits(r.Prob))
	}
	return h.Sum64()
}

func rowsJSON(rows []view.Row) []server.RowJSON {
	out := make([]server.RowJSON, len(rows))
	for i, r := range rows {
		out[i] = server.RowJSON{T: r.T, Lambda: r.Lambda, Lo: r.Lo, Hi: r.Hi, Prob: r.Prob}
	}
	return out
}

// splitByT groups contiguous rows by timestamp.
func splitByT(rows []server.RowJSON) [][]server.RowJSON {
	var out [][]server.RowJSON
	for i := 0; i < len(rows); {
		j := i
		for j < len(rows) && rows[j].T == rows[i].T {
			j++
		}
		out = append(out, rows[i:j])
		i = j
	}
	return out
}
