package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// exposition is one scrape of a Prometheus text exposition: every sample
// keyed by its metric name plus its canonical (sorted) label set, e.g.
// `tspdbd_request_duration_seconds_sum{route="POST /query"}`. Histogram
// buckets, _sum and _count series are ordinary samples under their own
// names.
type exposition map[string]float64

// parseExposition reads the text format: comment and blank lines are
// skipped, label values may contain escaped quotes, backslashes and
// newlines, and an optional trailing timestamp is ignored.
func parseExposition(r io.Reader) (exposition, error) {
	out := exposition{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		key, rest, err := parseSeries(line)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", ln, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("exposition line %d: want value [timestamp] after %s", ln, key)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", ln, err)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseSeries splits a sample line into its canonical series key and the
// text after the series.
func parseSeries(line string) (key, rest string, err error) {
	end := strings.IndexAny(line, "{ \t")
	if end <= 0 {
		return "", "", fmt.Errorf("no value in %q", line)
	}
	name := line[:end]
	if line[end] != '{' {
		return name, line[end:], nil
	}
	var labels []string
	i := end + 1
	for {
		for i < len(line) && (line[i] == ' ' || line[i] == ',') {
			i++
		}
		if i >= len(line) {
			return "", "", fmt.Errorf("unterminated label set in %q", line)
		}
		if line[i] == '}' {
			i++
			break
		}
		eq := strings.IndexByte(line[i:], '=')
		if eq <= 0 || i+eq+1 >= len(line) || line[i+eq+1] != '"' {
			return "", "", fmt.Errorf("bad label in %q", line)
		}
		lname := strings.TrimSpace(line[i : i+eq])
		j := i + eq + 2
		var val strings.Builder
		for ; j < len(line) && line[j] != '"'; j++ {
			if line[j] == '\\' && j+1 < len(line) {
				j++
				switch line[j] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(line[j])
				}
				continue
			}
			val.WriteByte(line[j])
		}
		if j >= len(line) {
			return "", "", fmt.Errorf("unterminated label value in %q", line)
		}
		labels = append(labels, lname+"="+strconv.Quote(val.String()))
		i = j + 1
	}
	return seriesKey(name, labels...), line[i:], nil
}

// seriesKey is the canonical key of a series: labels given as name="value"
// pairs (value quoted as strconv.Quote does) are sorted.
func seriesKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	s := append([]string(nil), labels...)
	sort.Strings(s)
	return name + "{" + strings.Join(s, ",") + "}"
}

// label formats one label pair for seriesKey.
func label(name, value string) string { return name + "=" + strconv.Quote(value) }

// diff returns after-before for every series in after; a series absent from
// before counts from zero (it was created during the interval). It is
// meaningful for counters and histogram _sum/_count/_bucket series; read
// gauges from the after scrape directly.
func (after exposition) diff(before exposition) exposition {
	out := make(exposition, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// get returns one series' value (0 when absent).
func (e exposition) get(name string, labels ...string) float64 {
	return e[seriesKey(name, labels...)]
}

// sum adds every series of the metric name across all label sets, except
// label sets matching one of the excluded label pairs.
func (e exposition) sum(name string, exclude ...string) float64 {
	total := 0.0
outer:
	for k, v := range e {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		for _, x := range exclude {
			if strings.Contains(k, x) {
				continue outer
			}
		}
		total += v
	}
	return total
}

// meanOf is a histogram's mean observation in the diffed interval
// (_sum/_count), 0 when nothing was observed.
func (e exposition) meanOf(hist string, labels ...string) float64 {
	return ratio(e.get(hist+"_sum", labels...), e.get(hist+"_count", labels...))
}
