package main

import (
	"testing"
	"time"
)

// fakeClock runs openLoop on simulated time: sleeping advances the clock by
// the request plus overshoot, and each operation by its service time.
type fakeClock struct {
	t         time.Time
	overshoot time.Duration
}

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d + c.overshoot) }
func (c *fakeClock) spend(d time.Duration) { c.t = c.t.Add(d) }
func msd(n float64) time.Duration          { return time.Duration(n * float64(time.Millisecond)) }
func msOf(ds []time.Duration) (out []float64) {
	for _, d := range ds {
		out = append(out, ms(d))
	}
	return out
}

func TestOpenLoopChargesStallsToQueuedOperations(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	start := clk.t
	service := []float64{2, 25, 2, 2, 2} // the second operation stalls
	ops := openLoop(start, start.Add(msd(50)), msd(10), clk.now, clk.sleep, func(i int) {
		clk.spend(msd(service[i]))
	})
	if len(ops) != 5 {
		t.Fatalf("%d operations before the end, want 5", len(ops))
	}
	var lat []float64
	for _, o := range ops {
		lat = append(lat, ms(o.latency()))
	}
	// Operation 2 is due at 20 ms but waits for the stall until 35 ms: its
	// latency counts from when it was due, and so does operation 3's.
	wantLat := []float64{2, 25, 17, 9, 2}
	for i := range wantLat {
		if lat[i] != wantLat[i] {
			t.Fatalf("latencies %v, want %v", lat, wantLat)
		}
	}
	// The generator sent every operation as soon as it could: no lateness.
	for i, l := range msOf(lateness(ops)) {
		if l != 0 {
			t.Errorf("operation %d: lateness %v ms, want 0", i, l)
		}
	}
}

func TestOpenLoopLatenessIsTheGeneratorsOwnDelay(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0), overshoot: msd(1)}
	start := clk.t
	service := []float64{2, 25, 2, 2}
	ops := openLoop(start, start.Add(msd(40)), msd(10), clk.now, clk.sleep, func(i int) {
		clk.spend(msd(service[i]))
	})
	// Operation 0 is due at once (no sleep). Operation 1 sleeps 8 ms and
	// oversleeps by 1. Operations 2 and 3 are already due when their
	// predecessors finish (36 and 38 ms) and go out at once.
	got := msOf(lateness(ops))
	want := []float64{0, 1, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lateness %v, want %v", got, want)
		}
	}
	if l := ms(ops[1].latency()); l != 26 {
		t.Errorf("stalled operation latency %v ms, want 26 (1 late + 25 service)", l)
	}
}
