package main

import (
	"strings"
	"testing"
)

const scrapeBefore = `# HELP tspdbd_requests_total Requests served, by route and status code.
# TYPE tspdbd_requests_total counter
tspdbd_requests_total{code="200",route="POST /tables/{table}/points"} 10
tspdbd_requests_total{route="GET /metrics",code="200"} 1
# TYPE tspdbd_request_duration_seconds histogram
tspdbd_request_duration_seconds_bucket{route="POST /tables/{table}/points",le="0.01"} 4
tspdbd_request_duration_seconds_bucket{route="POST /tables/{table}/points",le="+Inf"} 10
tspdbd_request_duration_seconds_sum{route="POST /tables/{table}/points"} 0.2
tspdbd_request_duration_seconds_count{route="POST /tables/{table}/points"} 10
tspdbd_request_duration_seconds_sum{route="GET /metrics"} 0.001
tspdbd_request_duration_seconds_count{route="GET /metrics"} 1
tspdb_wal_bytes_total 1000
tspdbd_stream_steps_total{table="a \"quoted\" name",view="v"} 3 1700000000000
`

const scrapeAfter = `tspdbd_requests_total{code="200",route="POST /tables/{table}/points"} 30
tspdbd_requests_total{code="200",route="GET /metrics"} 2
tspdbd_requests_total{code="200",route="POST /query"} 5
tspdbd_request_duration_seconds_bucket{route="POST /tables/{table}/points",le="+Inf"} 30
tspdbd_request_duration_seconds_sum{route="POST /tables/{table}/points"} 0.6
tspdbd_request_duration_seconds_count{route="POST /tables/{table}/points"} 30
tspdbd_request_duration_seconds_sum{route="POST /query"} 0.05
tspdbd_request_duration_seconds_count{route="POST /query"} 5
tspdbd_request_duration_seconds_sum{route="GET /metrics"} 0.003
tspdbd_request_duration_seconds_count{route="GET /metrics"} 2
tspdb_wal_bytes_total 4096
tspdbd_stream_steps_total{table="a \"quoted\" name",view="v"} 7
`

func TestExpositionDiff(t *testing.T) {
	before, err := parseExposition(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := after.diff(before)
	points := label("route", "POST /tables/{table}/points")
	const dur = "tspdbd_request_duration_seconds"

	// Label order does not matter; a labelled counter diffs per series.
	if got := d.get("tspdbd_requests_total", label("route", "POST /tables/{table}/points"), label("code", "200")); got != 20 {
		t.Errorf("points requests diff = %v, want 20", got)
	}
	// A series created during the interval counts from zero.
	if got := d.get("tspdbd_requests_total", label("code", "200"), label("route", "POST /query")); got != 5 {
		t.Errorf("new series diff = %v, want 5", got)
	}
	// Histogram mean over the interval: (0.6-0.2)/(30-10).
	if got := d.meanOf(dur, points); got < 0.0199999 || got > 0.0200001 {
		t.Errorf("points mean latency = %v, want 0.02", got)
	}
	if got := d.get(dur+"_bucket", points, label("le", "+Inf")); got != 20 {
		t.Errorf("+Inf bucket diff = %v, want 20", got)
	}
	// Summing across routes, leaving out the scrapes themselves.
	if got := d.sum(dur+"_count", label("route", "GET /metrics")); got != 25 {
		t.Errorf("request count without scrapes = %v, want 25", got)
	}
	if got := d.sum(dur + "_count"); got != 26 {
		t.Errorf("request count = %v, want 26", got)
	}
	if got := d.get("tspdb_wal_bytes_total"); got != 3096 {
		t.Errorf("unlabelled counter diff = %v, want 3096", got)
	}
	// Escaped quotes in a label value, and a trailing timestamp, parse.
	if got := d.get("tspdbd_stream_steps_total", label("table", `a "quoted" name`), label("view", "v")); got != 4 {
		t.Errorf("escaped-label series diff = %v, want 4", got)
	}
	if got := d.meanOf("tspdb_ingest_step_seconds"); got != 0 {
		t.Errorf("absent histogram mean = %v, want 0", got)
	}
}

func TestExpositionRejectsMalformedLines(t *testing.T) {
	for _, line := range []string{
		"metric_without_value",
		`m{route="unterminated} 1`,
		`m{route=unquoted} 1`,
		"m not-a-number",
		"m 1 2 3",
	} {
		if _, err := parseExposition(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%q parsed without error", line)
		}
	}
}
