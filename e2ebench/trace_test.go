package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "clean.prepare", Start: 0, End: 100, Parent: -1},
		{Name: "density.infer.cgarch", Start: 10, End: 30, Parent: 0},
		{Name: "density.infer.cgarch", Start: 20, End: 50, Parent: 0}, // overlaps its sibling
		{Name: "view.generate_one.cached", Start: 120, End: 150, Parent: -1},
		{Name: "storage.commit_step", Start: 150, End: 160, Parent: -1},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"clean": 60, "density": 50, "view": 30, "storage": 10}
	for layer, w := range want {
		if self[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, self[layer], w)
		}
	}
	// Top-level spans cover [0,100) and [120,160) of a 200 ns wall.
	if got := coverage(spans, 200); got != 0.7 {
		t.Errorf("coverage = %v, want 0.7", got)
	}
	if d, n := sumByName(spans, "density.infer.cgarch"); d != 50 || n != 2 {
		t.Errorf("sumByName = %v over %d, want 50 over 2", d, n)
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	rec.setReq(7)
	rec.call("clean.prepare", func() {
		rec.call("density.infer.cgarch", func() {})
	})
	rec.call("storage.commit_step", func() {})
	if len(rec.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(rec.spans))
	}
	if rec.spans[1].Parent != 0 || rec.spans[0].Parent != -1 || rec.spans[2].Parent != -1 {
		t.Errorf("parents %d %d %d, want -1 0 -1", rec.spans[0].Parent, rec.spans[1].Parent, rec.spans[2].Parent)
	}
	for _, s := range rec.spans {
		if s.Req != 7 || s.End < s.Start {
			t.Errorf("span %+v: want req 7 and end >= start", s)
		}
	}
	var none *recorder // the untraced run records nothing and still calls through
	called := false
	none.call("x.y", func() { called = true })
	if !called {
		t.Error("nil recorder did not run the call")
	}
}
