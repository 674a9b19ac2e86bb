package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/probdb"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/timeseries"
)

// Open-loop rates of serve-mixed and the read windows.
const (
	liveInterval = 100 * time.Millisecond // one batch of 10 points: 100 points/s
	readInterval = 5 * time.Millisecond   // 200 reads/s
	seriesTuples = 720                    // one day at the 2-minute sampling interval
	selectTuples = 10080                  // two weeks
	topK         = 3
	liveSeedSalt = 7919 // the live stream's series seed is --seed plus this
)

// histStatement builds serve-mixed's read fixture: cheap VT fits over the
// whole campus series, ~1.79 M rows.
var histStatement = fmt.Sprintf("CREATE VIEW hist AS DENSITY r OVER t OMEGA delta=%g, n=%d METRIC VT WINDOW %d FROM campus",
	omegaDelta, histN, window)

type readKind int

const (
	readRangeProb readKind = iota
	readTopK
	readSeries
	readExpected
	readCount
)

func (k readKind) point() bool { return k == readRangeProb || k == readTopK }

// readOp is one scheduled read. from is the rangeprob timestamp or the
// first timestamp of a scan; back is how far topk reads behind the latest
// acknowledged live timestamp.
type readOp struct {
	kind   readKind
	from   int64
	lo, hi float64
	back   int64
}

// readPlan draws n reads from the seeded mix: 1/4 rangeprob, 1/4 topk,
// 7/16 series, 1/32 SELECT EXPECTED, 1/32 SELECT COUNT. A two-week SELECT
// costs several milliseconds; at this share the read connection stays
// about a fifth busy, so reads queue behind scans without a growing
// backlog and the tail is not set by a few coincidences.
func readPlan(seed int64, n int, hist []timeseries.Point) []readOp {
	rng := rand.New(rand.NewSource(seed))
	first := window // index of hist's first tuple
	pick := func(span int) int { return first + rng.Intn(len(hist)-first-span+1) }
	around := func(i int) (float64, float64) {
		c := math.Round(hist[i].V*100) / 100
		return c - 1, c + 1
	}
	ops := make([]readOp, n)
	for i := range ops {
		var op readOp
		switch u := rng.Intn(32); {
		case u < 8:
			j := pick(1)
			op = readOp{kind: readRangeProb, from: hist[j].T}
			op.lo, op.hi = around(j)
		case u < 16:
			op = readOp{kind: readTopK, back: int64(rng.ExpFloat64() * 5)}
		case u < 30:
			j := pick(seriesTuples)
			op = readOp{kind: readSeries, from: hist[j].T}
			op.lo, op.hi = around(j)
		default:
			j := pick(selectTuples)
			op = readOp{kind: readExpected, from: hist[j].T}
			if u == 31 {
				op.kind = readCount
				op.lo, op.hi = around(j)
			}
		}
		ops[i] = op
	}
	return ops
}

func fmtF(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// selectText is the statement of a SELECT read.
func (op readOp) selectText() string {
	to := op.from + selectTuples - 1
	if op.kind == readCount {
		return fmt.Sprintf("SELECT COUNT(%s, %s) FROM hist WHERE t >= %d AND t <= %d", fmtF(op.lo), fmtF(op.hi), op.from, to)
	}
	return fmt.Sprintf("SELECT EXPECTED FROM hist WHERE t >= %d AND t <= %d", op.from, to)
}

// served is one answer kept for the reference comparison.
type served struct {
	op     readOp
	prob   float64
	series *server.SeriesResponse
	rows   [][]string
}

type serveRun struct {
	seed       int64
	hist, live []timeseries.Point
	plan       []readOp
	liveOpen   server.OpenStreamRequest

	latest   atomic.Int64 // latest acknowledged live timestamp
	firstT   int64        // first streamed live timestamp
	liveNext int

	mu       sync.Mutex // guards the fields below, written by the checker and both loops
	kept     []served
	scans    int
	liveRows int
	pc       phaseCounts
}

func newServe(seed int64) (*serveRun, error) {
	r := &serveRun{
		seed: seed,
		hist: allPoints(dataset.Campus(dataset.CampusConfig{Seed: seed})),
		live: allPoints(dataset.Campus(dataset.CampusConfig{Seed: seed + liveSeedSalt})),
		liveOpen: server.OpenStreamRequest{View: "live_pv", Metric: &server.MetricSpecJSON{Name: "ARMA_GARCH"},
			H: window, Delta: omegaDelta, N: omegaN},
	}
	r.firstT = r.live[warmLen].T
	return r, nil
}

// setup loads campus, builds hist, registers the live table with its
// warm-up prefix, opens the stream and ingests its first batch so that topk
// has a timestamp to read from the start. It ends with a checkpoint: hist's
// WAL record is far above the background threshold, and without it the
// segment writes of that checkpoint would spill into the timed phase.
func (r *serveRun) setup(c *conn) error {
	if _, err := c.do(http.MethodPut, "/tables/campus", "text/csv", csvBody(r.hist), nil); err != nil {
		return err
	}
	var q server.QueryResponse
	if _, err := c.postJSON("/query", server.QueryRequest{Q: histStatement}, &q); err != nil {
		return err
	}
	if q.View == nil || q.View.Rows != (len(r.hist)-window)*histN {
		return fmt.Errorf("hist answered %+v, want %d rows", q.View, (len(r.hist)-window)*histN)
	}
	if _, err := c.do(http.MethodPut, "/tables/live", "text/csv", csvBody(r.live[:warmLen]), nil); err != nil {
		return err
	}
	if _, err := c.postJSON("/tables/live/stream", r.liveOpen, nil); err != nil {
		return err
	}
	pts := r.live[warmLen : warmLen+batchSize]
	var resp server.IngestResponse
	if _, err := c.postJSON("/tables/live/points", server.IngestRequest{Points: pointsJSON(pts)}, &resp); err != nil {
		return err
	}
	if _, err := c.postJSON("/checkpoint", struct{}{}, nil); err != nil {
		return err
	}
	r.liveNext = warmLen + batchSize
	r.latest.Store(pts[len(pts)-1].T)
	r.liveRows = len(resp.Rows)
	r.kept, r.scans = nil, 0
	return nil
}

// timed runs the two open loops side by side until the deadline.
func (r *serveRun) timed(d *daemon, end time.Time, res *result) error {
	r.plan = readPlan(r.seed, int(time.Until(end)/readInterval)+1, r.hist)
	start := time.Now()
	chk := startChecker()
	var writes, reads []opTiming
	var pointLat, scanLat []float64
	var readErr, writeErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newConn(d.base)
		defer c.close()
		writes = openLoop(start, end, liveInterval, time.Now, time.Sleep, func(int) {
			writeErr = firstErr(writeErr, r.liveBatch(c, chk, res))
		})
	}()
	go func() {
		defer wg.Done()
		c := newConn(d.base)
		defer c.close()
		reads = openLoop(start, end, readInterval, time.Now, time.Sleep, func(i int) {
			readErr = firstErr(readErr, r.read(c, chk, r.plan[i], res))
		})
	}()
	wg.Wait()
	wall := time.Since(start)
	chk.wait()
	if err := firstErr(readErr, writeErr); err != nil {
		return err
	}
	for i, o := range reads {
		if r.plan[i].kind.point() {
			pointLat = append(pointLat, ms(o.latency()))
		} else {
			scanLat = append(scanLat, ms(o.latency()))
		}
	}
	liveLat := make([]float64, len(writes))
	for i, o := range writes {
		liveLat[i] = ms(o.latency())
	}
	res.addOpLatency([]opClass{
		medianClass("op.read_point_p50_ms", pointLat),
		medianClass("op.read_scan_p50_ms", scanLat),
		medianClass("op.live_ingest_p50_ms", liveLat),
	})
	res.mu.Lock()
	answered := res.attempted - res.failed
	res.mu.Unlock()
	res.addE2E("throughput_per_s", float64(answered)/wall.Seconds(), "1/s",
		fmt.Sprintf("%d requests answered in %.3gs at an offered %.4g/s", answered, wall.Seconds(),
			float64(time.Second/readInterval+time.Second/liveInterval)))
	// The open-loop tails are reported per layer, not gated: on a two-vCPU
	// VM they move two- to fourfold with the host's CPU steal, far beyond
	// any bound a comparison could hold them to.
	res.addPercentile("tail.read_point_p99_ms", pointLat, 0.99, true)
	res.addPercentile("tail.read_scan_p99_ms", scanLat, 0.99, true)
	res.addPercentile("tail.live_ingest_p95_ms", liveLat, 0.95, true)

	r.pc.reads = len(reads)
	r.pc.units = end.Sub(start).Seconds()
	r.pc.lags = append(lateness(reads), lateness(writes)...)
	r.pc.catalogRows = (len(r.hist)-window)*histN + r.liveRows
	return nil
}

// firstErr keeps the first of two errors. Only a generator-side failure
// stops the run; a failed request counts in success_share instead.
func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// liveBatch sends the next 10 live points.
func (r *serveRun) liveBatch(c *conn, chk *checker, res *result) error {
	if r.liveNext+batchSize > len(r.live) {
		return fmt.Errorf("live stream exhausted its %d points; shorten --seconds", len(r.live))
	}
	pts := r.live[r.liveNext : r.liveNext+batchSize]
	r.liveNext += batchSize
	body, err := json.Marshal(server.IngestRequest{Points: pointsJSON(pts)})
	if err != nil {
		return err
	}
	rep, err := c.do(http.MethodPost, "/tables/live/points", "application/json", body, nil)
	res.op(err)
	r.mu.Lock()
	r.pc.clientTime += rep.elapsed
	if err == nil {
		r.pc.points += len(pts)
		r.pc.ingestBytes += rep.bytes
	}
	r.mu.Unlock()
	if err != nil {
		return nil
	}
	r.latest.Store(pts[len(pts)-1].T)
	raw := c.body()
	chk.add(func() {
		var resp server.IngestResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			res.problem("live: decode ingest response: %v", err)
			return
		}
		if resp.Ingested != len(pts) {
			res.problem("live: ingested %d of a batch of %d", resp.Ingested, len(pts))
		}
		ts, err := checkRows(resp.Rows, omegaN)
		if err != nil || len(ts) != len(pts) || ts[0] != pts[0].T {
			res.problem("live batch at t=%d: %d timestamps, %v", pts[0].T, len(ts), err)
		}
		r.mu.Lock()
		r.liveRows += len(resp.Rows)
		r.pc.viewRows += len(resp.Rows)
		r.mu.Unlock()
	})
	return nil
}

// read sends one scheduled read and queues its checks.
func (r *serveRun) read(c *conn, chk *checker, op readOp, res *result) error {
	var rep reply
	var err error
	switch op.kind {
	case readRangeProb:
		rep, err = c.do(http.MethodGet, fmt.Sprintf("/views/hist/rangeprob?t=%d&lo=%s&hi=%s", op.from, fmtF(op.lo), fmtF(op.hi)), "", nil, nil)
	case readTopK:
		op.from = max(r.firstT, r.latest.Load()-op.back)
		rep, err = c.do(http.MethodGet, fmt.Sprintf("/views/live_pv/topk?t=%d&k=%d", op.from, topK), "", nil, nil)
	case readSeries:
		rep, err = c.do(http.MethodGet, fmt.Sprintf("/views/hist/series?from=%d&to=%d&stats=expected,prob,count&lo=%s&hi=%s",
			op.from, op.from+seriesTuples-1, fmtF(op.lo), fmtF(op.hi)), "", nil, nil)
	default:
		rep, err = c.postJSON("/query", server.QueryRequest{Q: op.selectText()}, nil)
	}
	res.op(err)
	r.mu.Lock()
	r.pc.clientTime += rep.elapsed
	r.mu.Unlock()
	if err != nil {
		return nil
	}
	raw := c.body()
	chk.add(func() { r.checkRead(op, raw, res) })
	return nil
}

// checkRead checks one answer's shape and keeps a seeded sample of the
// scan answers (every rangeprob) for the reference comparison.
func (r *serveRun) checkRead(op readOp, raw []byte, res *result) {
	keep := served{op: op}
	switch op.kind {
	case readRangeProb:
		var resp server.RangeProbResponse
		if err := json.Unmarshal(raw, &resp); err != nil || resp.Prob == nil {
			res.problem("rangeprob t=%d: bad answer %q", op.from, raw)
			return
		}
		keep.prob = *resp.Prob
	case readTopK:
		var resp server.TopKResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			res.problem("topk t=%d: %v", op.from, err)
			return
		}
		if len(resp.Rows) != topK {
			res.problem("topk t=%d: %d rows, want %d", op.from, len(resp.Rows), topK)
			return
		}
		for i, row := range resp.Rows {
			if row.T != op.from || !finite(row.Prob) || row.Lo > row.Hi || row.Prob > 1 ||
				(i > 0 && row.Prob > resp.Rows[i-1].Prob) {
				res.problem("topk t=%d: bad row %d %+v", op.from, i, row)
				return
			}
		}
		return
	case readSeries:
		var resp server.SeriesResponse
		if err := json.Unmarshal(raw, &resp); err != nil || resp.Count == nil ||
			len(resp.Expected) != seriesTuples || len(resp.Prob) != seriesTuples {
			res.problem("series from=%d: bad answer (%v)", op.from, err)
			return
		}
		keep.series = &resp
	default:
		var resp server.QueryResponse
		if err := json.Unmarshal(raw, &resp); err != nil || resp.Kind != "rows" {
			res.problem("%s: bad answer (%v)", op.selectText(), err)
			return
		}
		want := selectTuples
		if op.kind == readCount {
			want = 1
		}
		if len(resp.Rows) != want {
			res.problem("%s: %d rows, want %d", op.selectText(), len(resp.Rows), want)
			return
		}
		keep.rows = resp.Rows
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Every rangeprob answer is compared; one scan answer in four.
	if op.kind != readRangeProb {
		r.scans++
		if r.scans%4 != 1 {
			return
		}
	}
	r.kept = append(r.kept, keep)
}

// after recomputes the kept answers in process, with the same public
// functions over a hist view built from the same inputs, and requires them
// to match exactly.
func (r *serveRun) after(d *daemon, res *result) error {
	db := storage.NewDB()
	series, err := timeseries.New(r.hist)
	if err != nil {
		return err
	}
	if _, err := db.CreateRawTable("campus", "", "", series); err != nil {
		return err
	}
	if _, err := query.Exec(db, histStatement); err != nil {
		return err
	}
	hist, err := db.View("hist")
	if err != nil {
		return err
	}
	workers := query.ResolveParallelism(0)
	all := probdb.FusedStats{Expected: true, Prob: true, Count: true}
	for _, k := range r.kept {
		op := k.op
		switch {
		case op.kind == readRangeProb:
			p, err := probdb.RangeProbAt(hist, op.from, op.lo, op.hi)
			if err != nil || p != k.prob {
				res.problem("rangeprob t=%d [%v,%v]: served %v, reference %v (%v)", op.from, op.lo, op.hi, k.prob, p, err)
			}
		case k.series != nil:
			fr, _, err := probdb.FusedSeries(hist, op.from, op.from+seriesTuples-1, op.lo, op.hi, all, workers)
			if err != nil {
				return err
			}
			if *k.series.Count != fr.Count || !sameSeries(k.series.Expected, fr.Expected) || !sameSeries(k.series.Prob, fr.Prob) {
				res.problem("series from=%d differs from the reference", op.from)
			}
		case k.rows != nil:
			ref, err := query.Exec(db, op.selectText())
			if err != nil {
				return err
			}
			if fmt.Sprint(ref.Rows) != fmt.Sprint(k.rows) {
				res.problem("%s differs from the reference", op.selectText())
			}
		}
	}
	return nil
}

func sameSeries(got []server.TimeValueJSON, want []probdb.TimeSeriesPoint) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].T != want[i].T || got[i].Value != want[i].Value {
			return false
		}
	}
	return true
}

func (r *serveRun) counts() phaseCounts {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pc
}
