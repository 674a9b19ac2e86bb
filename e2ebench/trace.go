package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// span is one traced call into a module: its name is "<layer>.<call>",
// parent indexes the enclosing span (-1 for none) and req groups the spans
// of one benchmark operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// recorder keeps spans in memory for one single-goroutine traced run and
// writes them out when the run ends. A nil recorder records nothing, which
// is how the untraced comparison run executes the same code.
type recorder struct {
	epoch time.Time
	spans []span
	cur   int // innermost open span, -1 when none
	req   int
	mem   map[string]*allocStat
}

// allocStat accumulates runtime.MemStats deltas over sampled calls of one
// kind, and the units of work (inferences, tuples) those calls did.
type allocStat struct {
	seen, units, mallocs, bytes uint64
}

// allocSampleEvery is how often callCounted reads MemStats: every call
// would stop the world twice per span and inflate the tracing overhead.
const allocSampleEvery = 8

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), cur: -1, mem: map[string]*allocStat{}}
}

// setReq starts a new benchmark operation; later spans carry its id.
func (r *recorder) setReq(id int) {
	if r != nil {
		r.req = id
	}
}

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.epoch)), Parent: r.cur, Req: r.req})
	r.cur = len(r.spans) - 1
	return r.cur
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.epoch))
	r.cur = r.spans[i].Parent
}

// call traces fn as one span.
func (r *recorder) call(name string, fn func()) {
	i := r.begin(name)
	fn()
	r.end(i)
}

// callCounted traces fn, a call doing units of work, and on every
// allocSampleEvery-th call of key also charges its heap allocations, read
// from runtime.MemStats around the span (outside its timing), to key.
func (r *recorder) callCounted(name, key string, units int, fn func()) {
	if r == nil {
		fn()
		return
	}
	st := r.mem[key]
	if st == nil {
		st = &allocStat{}
		r.mem[key] = st
	}
	st.seen++
	if st.seen%allocSampleEvery != 1 {
		r.call(name, fn)
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	i := r.begin(name)
	fn()
	r.end(i)
	runtime.ReadMemStats(&m1)
	st.units += uint64(units)
	st.mallocs += m1.Mallocs - m0.Mallocs
	st.bytes += m1.TotalAlloc - m0.TotalAlloc
}

// allocs returns the allocations and allocated bytes per unit of work of
// key's sampled calls.
func (r *recorder) allocs(key string) (perUnit, bytesPerUnit float64) {
	if r == nil || r.mem[key] == nil {
		return 0, 0
	}
	st := r.mem[key]
	return ratio(float64(st.mallocs), float64(st.units)), ratio(float64(st.bytes), float64(st.units))
}

// layerOf is the layer a span name belongs to: the text before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each layer's self time: for every span its duration
// minus the part of it that its direct children cover, summed by layer.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		var kids [][2]int64
		for _, c := range children[i] {
			kids = append(kids, [2]int64{spans[c].Start, spans[c].End})
		}
		self := (s.End - s.Start) - covered(kids, s.Start, s.End)
		out[layerOf(s.Name)] += time.Duration(self)
	}
	return out
}

// sumByName adds the durations of the spans with one exact name.
func sumByName(spans []span, name string) (total time.Duration, n int) {
	for _, s := range spans {
		if s.Name == name {
			total += time.Duration(s.End - s.Start)
			n++
		}
	}
	return total, n
}

// coverage is the share of the wall interval [0, wall) that top-level
// spans cover.
func coverage(spans []span, wall time.Duration) float64 {
	var top [][2]int64
	for _, s := range spans {
		if s.Parent < 0 {
			top = append(top, [2]int64{s.Start, s.End})
		}
	}
	return ratio(float64(covered(top, 0, int64(wall))), float64(wall))
}

// covered is the length of the union of intervals clipped to [lo, hi).
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			flush()
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	flush()
	return total
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
