package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/clean"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/timeseries"
)

// errorMagnitude and errorShare are the Section VII-B injection: this share
// of the streamed points replaced by values this many standard deviations
// from the series mean. rssAfterPoints is the work after which the daemon's
// peak RSS is read. ingestSeriesLen is four campus datasets back to back
// (100 days), so that each stream has several times the points a run at
// today's speed ingests.
const (
	errorMagnitude  = 6
	errorShare      = 0.02
	rssAfterPoints  = 2000
	ingestSeriesLen = 4 * dataset.CampusSize
)

// ingestStream is one served stream of the ingest workload and what the
// generator saw acknowledged on it.
type ingestStream struct {
	table, view string
	points      []timeseries.Point
	start       int // index of the first streamed point; the table holds the warmLen before it
	open        server.OpenStreamRequest
	next        int              // index of the next point to send
	acked       []int64          // acknowledged timestamps, in order
	digests     map[int64]uint64 // acknowledged timestamp -> its rows' digest
}

type ingestRun struct {
	seed     int64
	streams  [2]*ingestStream // campus, campus_dirty
	injected map[int64]bool   // dirty-stream timestamps carrying an injected error

	lat       [2][]time.Duration // per stream
	pc        phaseCounts
	erroneous int
	trends    int
	injSeen   int
	injCaught int
}

// newIngest streams campus from its start and campus_dirty from the
// series midpoint, so that one run's fits sample two separate stretches of
// the seeded series.
func newIngest(seed int64) (*ingestRun, error) {
	campus := dataset.Campus(dataset.CampusConfig{N: ingestSeriesLen, Seed: seed})
	mid := campus.Len() / 2
	count := int(float64(campus.Len()-mid) * errorShare)
	dirty, injs, err := dataset.InjectErrors(campus, count, errorMagnitude, mid, seed)
	if err != nil {
		return nil, err
	}
	dirtyPts := allPoints(dirty)
	svMax, err := clean.LearnSVMax(dirty.Values()[mid-window:mid], ocMax)
	if err != nil {
		return nil, err
	}
	r := &ingestRun{seed: seed, injected: map[int64]bool{}}
	for _, inj := range injs {
		r.injected[dirtyPts[inj.Index].T] = true
	}
	metric := &server.MetricSpecJSON{Name: "ARMA_GARCH"}
	r.streams[0] = &ingestStream{table: "campus", view: "campus_pv", points: allPoints(campus), start: warmLen,
		open: server.OpenStreamRequest{View: "campus_pv", Metric: metric, H: window, Delta: omegaDelta, N: omegaN,
			SigmaMin: sigmaMin, SigmaMax: sigmaMax, Distance: cacheDist}}
	r.streams[1] = &ingestStream{table: "campus_dirty", view: "dirty_pv", points: dirtyPts, start: mid,
		open: server.OpenStreamRequest{View: "dirty_pv", Metric: metric, H: window, Delta: omegaDelta, N: omegaN,
			CleanOCMax: ocMax, CleanSVMax: svMax}}
	return r, nil
}

func allPoints(s *timeseries.Series) []timeseries.Point {
	ts, vs := s.Times(), s.Values()
	out := make([]timeseries.Point, len(ts))
	for i := range ts {
		out[i] = timeseries.Point{T: ts[i], V: vs[i]}
	}
	return out
}

// setup registers both tables with their warm-up prefix and opens both
// streams.
func (r *ingestRun) setup(c *conn) error {
	for _, s := range r.streams {
		s.next, s.acked, s.digests = s.start, nil, map[int64]uint64{}
		if _, err := c.do(http.MethodPut, "/tables/"+s.table, "text/csv", csvBody(s.points[s.start-warmLen:s.start]), nil); err != nil {
			return err
		}
		if _, err := c.postJSON("/tables/"+s.table+"/stream", s.open, nil); err != nil {
			return err
		}
	}
	return nil
}

// timed ingests batches of 10 points, alternating streams, each sent when
// the previous one was answered.
func (r *ingestRun) timed(d *daemon, end time.Time, res *result) error {
	c := newConn(d.base)
	defer c.close()
	chk := startChecker()
	start := time.Now()
	acked := 0
	for i := 0; time.Now().Before(end); i++ {
		k := i % 2
		s := r.streams[k]
		if s.next+batchSize > len(s.points) {
			break // a much faster daemon ran out of input: measure what was done
		}
		pts := s.points[s.next : s.next+batchSize]
		s.next += batchSize
		body, err := json.Marshal(server.IngestRequest{Points: pointsJSON(pts)})
		if err != nil {
			chk.wait()
			return err
		}
		rep, err := c.do(http.MethodPost, "/tables/"+s.table+"/points", "application/json", body, nil)
		res.op(err)
		r.pc.clientTime += rep.elapsed
		if err != nil {
			continue
		}
		r.lat[k] = append(r.lat[k], rep.elapsed)
		r.pc.ingestBytes += rep.bytes
		acked += len(pts)
		if r.pc.rssMB == 0 && acked >= rssAfterPoints {
			if r.pc.rssMB, err = d.peakRSSMB(); err != nil {
				chk.wait()
				return err
			}
		}
		raw := c.body()
		chk.add(func() { r.check(s, pts, raw, res) })
	}
	wall := time.Since(start)
	chk.wait()
	r.pc.points = acked
	r.pc.units = float64(acked) / 1000
	r.pc.catalogRows = r.pc.viewRows
	res.addE2E("throughput_per_s", float64(acked)/wall.Seconds(), "1/s", fmt.Sprintf("%d points acknowledged in %.3gs", acked, wall.Seconds()))
	campus, dirty := durationsMS(r.lat[0]), durationsMS(r.lat[1])
	res.addOpLatency([]opClass{
		medianClass("op.ingest_campus_p50_ms", campus),
		medianClass("op.ingest_dirty_p50_ms", dirty),
	})
	res.addPercentile("tail.ingest_batch_p95_ms", append(campus, dirty...), 0.95, true)
	res.setLayer("clean.erroneous_marked", float64(r.erroneous))
	res.setLayer("clean.trend_changes", float64(r.trends))
	// The response counts erroneous points per batch, so a batch's caught
	// injections are min(marked, injected).
	res.setLayer("clean.injected_caught_ratio", ratio(float64(r.injCaught), float64(r.injSeen)))
	return nil
}

// check verifies one acknowledged batch: every point ingested, rows for
// exactly those timestamps, each tuple well formed.
func (r *ingestRun) check(s *ingestStream, pts []timeseries.Point, raw []byte, res *result) {
	var resp server.IngestResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		res.problem("%s: decode ingest response: %v", s.table, err)
		return
	}
	if resp.Ingested != len(pts) {
		res.problem("%s: ingested %d of a batch of %d", s.table, resp.Ingested, len(pts))
	}
	ts, err := checkRows(resp.Rows, omegaN)
	if err != nil {
		res.problem("%s batch at t=%d: %v", s.table, pts[0].T, err)
		return
	}
	if len(ts) != len(pts) {
		res.problem("%s batch at t=%d: rows for %d timestamps, want %d", s.table, pts[0].T, len(ts), len(pts))
		return
	}
	for i, g := range splitByT(resp.Rows) {
		if ts[i] != pts[i].T {
			res.problem("%s: rows for t=%d where t=%d was sent", s.table, ts[i], pts[i].T)
			return
		}
		s.digests[ts[i]] = digest(g)
		s.acked = append(s.acked, ts[i])
	}
	r.pc.viewRows += len(resp.Rows)
	if s == r.streams[1] {
		inj := 0
		for _, p := range pts {
			if r.injected[p.T] {
				inj++
			}
		}
		r.erroneous += resp.Erroneous
		r.trends += resp.TrendChanges
		r.injSeen += inj
		r.injCaught += min(inj, resp.Erroneous)
	}
}

// after is the durability check that closes the workload: SIGKILL the
// daemon after the last acknowledgement, restart it over the same data
// directory, and require every acknowledged point and its view rows back.
// This proves durability across a process crash under -fsync=false, not
// across power loss.
func (r *ingestRun) after(d *daemon, res *result) error {
	start := time.Now()
	if err := d.restart(); err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	r.pc.recoveryTime = time.Since(start)
	c := newConn(d.base)
	defer c.close()

	var show server.QueryResponse
	if _, err := c.postJSON("/query", server.QueryRequest{Q: "SHOW TABLES"}, &show); err != nil {
		return err
	}
	have := map[string]int{}
	for _, row := range show.Rows {
		if len(row) == 3 {
			n, err := strconv.Atoi(row[2])
			if err != nil {
				return fmt.Errorf("SHOW TABLES row %v: %w", row, err)
			}
			have[row[0]] = n
		}
	}
	rng := rand.New(rand.NewSource(r.seed))
	for _, s := range r.streams {
		// A failed batch may have been applied in part, so with failures the
		// catalog may hold more than was acknowledged, never less.
		wantRaw, wantView := warmLen+len(s.acked), len(s.acked)*omegaN
		if res.failed == 0 && (have[s.table] != wantRaw || have[s.view] != wantView) ||
			have[s.table] < wantRaw || have[s.view] < wantView {
			res.problem("recovered %s/%s hold %d/%d rows, acknowledged %d/%d",
				s.table, s.view, have[s.table], have[s.view], wantRaw, wantView)
		}
		if len(s.acked) == 0 {
			continue
		}
		for k := 0; k < 16; k++ {
			t := s.acked[rng.Intn(len(s.acked))]
			var vr server.ViewRowsResponse
			path := fmt.Sprintf("/views/%s/rows?from=%d&to=%d", s.view, t, t)
			if _, err := c.do(http.MethodGet, path, "", nil, &vr); err != nil {
				return err
			}
			if digest(vr.Rows) != s.digests[t] {
				res.problem("recovered rows of %s at t=%d differ from the acknowledged ones", s.view, t)
			}
		}
		if err := r.checkRaw(c, s, rng, res); err != nil {
			return err
		}
	}
	return nil
}

// checkRaw compares a seeded run of recovered raw values with what was sent.
func (r *ingestRun) checkRaw(c *conn, s *ingestStream, rng *rand.Rand, res *result) error {
	n := min(64, len(s.acked))
	i := rng.Intn(len(s.acked) - n + 1)
	lo, hi := s.acked[i], s.acked[i+n-1]
	var q server.QueryResponse
	stmt := fmt.Sprintf("SELECT * FROM %s WHERE t >= %d AND t <= %d", s.table, lo, hi)
	if _, err := c.postJSON("/query", server.QueryRequest{Q: stmt}, &q); err != nil {
		return err
	}
	first := sort.Search(len(s.points), func(j int) bool { return s.points[j].T >= lo })
	if len(q.Rows) != n {
		res.problem("recovered %s holds %d points in [%d, %d], want %d", s.table, len(q.Rows), lo, hi, n)
		return nil
	}
	for j, row := range q.Rows {
		p := s.points[first+j]
		// The query layer prints values with 10 significant digits.
		if len(row) != 2 || row[0] != strconv.FormatInt(p.T, 10) || row[1] != strconv.FormatFloat(p.V, 'g', 10, 64) {
			res.problem("recovered %s point %v, sent t=%d v=%v", s.table, row, p.T, p.V)
			return nil
		}
	}
	return nil
}

func (r *ingestRun) counts() phaseCounts { return r.pc }
