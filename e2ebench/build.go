package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/timeseries"
	"repro/internal/view"
)

// viewBuild is one of the build workload's two CREATE VIEW statements.
type viewBuild struct {
	key    string // metric key of the per-layer names
	name   string // view name; each build replaces the previous one
	metric string // METRIC clause
	cache  bool   // CACHE DISTANCE clause
	tuples int    // tuples per build
}

var viewBuilds = [2]viewBuild{
	{key: "arma_garch", name: "pv_arma", metric: "ARMA_GARCH", cache: true, tuples: 3000},
	{key: "kalman_garch", name: "pv_kalman", metric: "KALMAN_GARCH", cache: false, tuples: 500},
}

// statement is the CREATE VIEW text for tuples at timestamps [lo, lo+tuples).
func (b viewBuild) statement(lo int64) string {
	q := fmt.Sprintf("CREATE VIEW %s AS DENSITY r OVER t OMEGA delta=%g, n=%d METRIC %s WINDOW %d ",
		b.name, omegaDelta, omegaN, b.metric, window)
	if b.cache {
		q += fmt.Sprintf("CACHE DISTANCE %g ", cacheDist)
	}
	return q + fmt.Sprintf("FROM campus WHERE t >= %d AND t <= %d", lo, lo+int64(b.tuples)-1)
}

type buildRun struct {
	seed   int64
	points []timeseries.Point

	lat   [2][]time.Duration
	last  [2]int64 // window start of the view each name holds after the phase
	first [2]*server.QueryResponse
	pc    phaseCounts
}

func newBuild(seed int64) (*buildRun, error) {
	return &buildRun{seed: seed, points: allPoints(dataset.Campus(dataset.CampusConfig{Seed: seed}))}, nil
}

func (r *buildRun) setup(c *conn) error {
	_, err := c.do(http.MethodPut, "/tables/campus", "text/csv", csvBody(r.points), nil)
	return err
}

// strata is how many equal stretches of the series the builds of one kind
// cycle through. Fit cost varies along a series by ~10%; cycling keeps a
// run's mean build time an estimate over the whole series.
const strata = 6

// windowPlan places the k-th build of n tuples: in stratum (k+offset) mod
// strata of the timestamps that have a full window of H values before
// them, at a seeded position inside it.
type windowPlan struct {
	rng    *rand.Rand
	offset int
}

func newWindowPlan(seed int64) *windowPlan {
	rng := rand.New(rand.NewSource(seed))
	return &windowPlan{rng: rng, offset: rng.Intn(strata)}
}

func (p *windowPlan) start(points []timeseries.Point, k, n int) int64 {
	span := len(points) - window - n // last start index offset
	width := span / strata
	s := (k + p.offset) % strata
	return points[window].T + int64(s*width) + p.rng.Int63n(int64(width+1))
}

// timed alternates builds (a) and (b), each sent when the previous one was
// answered, until the deadline; a started pair always completes.
func (r *buildRun) timed(d *daemon, end time.Time, res *result) error {
	c := newConn(d.base)
	defer c.close()
	plan := newWindowPlan(r.seed)
	start := time.Now()
	tuples := 0
	for pair := 0; pair == 0 || time.Now().Before(end); pair++ {
		for i, b := range viewBuilds {
			lo := plan.start(r.points, pair, b.tuples)
			var resp server.QueryResponse
			rep, err := c.postJSON("/query?explain=1", server.QueryRequest{Q: b.statement(lo)}, &resp)
			res.op(err)
			r.pc.clientTime += rep.elapsed
			if err != nil {
				continue
			}
			r.lat[i] = append(r.lat[i], rep.elapsed)
			r.last[i] = lo
			if r.first[i] == nil {
				r.first[i] = &resp
			}
			tuples += b.tuples
			r.checkSummary(b, &resp, res)
			if resp.View != nil {
				r.pc.viewRows += resp.View.Rows
			}
		}
		r.pc.units++
		if pair == 0 {
			rss, err := d.peakRSSMB()
			if err != nil {
				return err
			}
			r.pc.rssMB = rss
		}
	}
	wall := time.Since(start)
	classes := make([]opClass, len(viewBuilds))
	for i, b := range viewBuilds {
		if len(r.lat[i]) == 0 {
			return fmt.Errorf("no build of %s succeeded", b.name)
		}
		// The mean, not the median: each build samples a different stratum.
		classes[i] = opClass{name: "op.build_" + b.key + "_ms", ms: mean(durationsMS(r.lat[i])),
			note: fmt.Sprintf("mean of %d builds", len(r.lat[i]))}
	}
	res.addOpLatency(classes)
	res.addE2E("throughput_per_s", float64(tuples)/wall.Seconds(), "1/s", fmt.Sprintf("%d view tuples built in %.3gs", tuples, wall.Seconds()))
	r.pc.catalogRows = (viewBuilds[0].tuples + viewBuilds[1].tuples) * omegaN
	return nil
}

// checkSummary checks a CREATE VIEW answer: the requested tuple count and
// Omega.N rows for each.
func (r *buildRun) checkSummary(b viewBuild, resp *server.QueryResponse, res *result) {
	switch {
	case resp.Kind != "view" || resp.View == nil || resp.Stats == nil:
		res.problem("%s: answer is not a view summary with statistics", b.name)
	case resp.Stats.Groups != b.tuples:
		res.problem("%s: %d tuples, want %d", b.name, resp.Stats.Groups, b.tuples)
	case resp.View.Rows != b.tuples*omegaN || resp.Stats.Rows != resp.View.Rows:
		res.problem("%s: %d rows (stats %d), want %d", b.name, resp.View.Rows, resp.Stats.Rows, b.tuples*omegaN)
	case b.cache && (resp.Cache == nil || resp.Cache.Hits+resp.Cache.Misses != b.tuples):
		res.problem("%s: sigma-cache answered %v lookups, want %d", b.name, resp.Cache, b.tuples)
	}
}

// after compares a seeded sample of the last built tuples with a reference
// inferred in process by the same metric and builder: bit for bit for the
// uncached Kalman view; for the cached view the ranges exactly and the
// probabilities within the total variation the cache's Hellinger bound
// allows (TV <= sqrt(2)*H', so the summed difference is at most 2*sqrt(2)*H').
func (r *buildRun) after(d *daemon, res *result) error {
	c := newConn(d.base)
	defer c.close()
	rng := rand.New(rand.NewSource(r.seed + 1))
	for i, b := range viewBuilds {
		metric, err := query.BuildMetric(&query.MetricSpec{Name: b.metric})
		if err != nil {
			return err
		}
		builder, err := view.NewBuilder(omega)
		if err != nil {
			return err
		}
		for k := 0; k < 4; k++ {
			t := r.last[i] + rng.Int63n(int64(b.tuples))
			idx := int(t - r.points[0].T)
			win := make([]float64, window)
			for j := range win {
				win[j] = r.points[idx-window+j].V
			}
			inf, err := metric.Infer(win)
			if err != nil {
				return err
			}
			want, err := builder.GenerateOne(view.Tuple{T: t, RHat: inf.RHat, Sigma: inf.Sigma, Dist: inf.Dist})
			if err != nil {
				return err
			}
			var vr server.ViewRowsResponse
			if _, err := c.do(http.MethodGet, fmt.Sprintf("/views/%s/rows?from=%d&to=%d", b.name, t, t), "", nil, &vr); err != nil {
				return err
			}
			if _, err := checkRows(vr.Rows, omegaN); err != nil {
				res.problem("%s at t=%d: %v", b.name, t, err)
				continue
			}
			if !b.cache {
				if digest(vr.Rows) != digest(rowsJSON(want)) {
					res.problem("%s at t=%d differs from the in-process reference", b.name, t)
				}
				continue
			}
			tv := 0.0
			for j, w := range want {
				g := vr.Rows[j]
				if g.T != w.T || g.Lambda != w.Lambda || g.Lo != w.Lo || g.Hi != w.Hi {
					res.problem("%s at t=%d: range %d differs from the reference", b.name, t, j)
					break
				}
				tv += math.Abs(g.Prob - w.Prob)
			}
			if tv > 2*math.Sqrt2*cacheDist {
				res.problem("%s at t=%d: cached probabilities differ by %.4g in total from the reference", b.name, t, tv)
			}
		}
	}
	return nil
}

func (r *buildRun) counts() phaseCounts { return r.pc }
