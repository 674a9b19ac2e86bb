package main

import "time"

// opTiming is one open-loop operation: when it was due, when the generator
// sent it and when its response had fully arrived.
type opTiming struct {
	due, sent, done time.Time
}

// latency is the operation's time from its scheduled send time to its
// completion, so a stall also charges every operation queued behind it
// (no coordinated omission).
func (o opTiming) latency() time.Duration { return o.done.Sub(o.due) }

// lateness is how late the generator itself sent each operation: the delay
// past the later of its due time and the completion of the previous
// operation on the same connection. Waiting for the connection is the
// server's doing and shows in latency; lateness that grows means the run is
// measuring the generator.
func lateness(ops []opTiming) []time.Duration {
	out := make([]time.Duration, len(ops))
	var prevDone time.Time
	for i, o := range ops {
		ready := o.due
		if prevDone.After(ready) {
			ready = prevDone
		}
		if d := o.sent.Sub(ready); d > 0 {
			out[i] = d
		}
		prevDone = o.done
	}
	return out
}

// openLoop issues op(i) at start + i*interval for every due time before end,
// one at a time on the calling goroutine (one connection). An operation
// whose due time has already passed is sent at once, so the schedule never
// slows down to match the server. The clock and sleep are parameters so the
// accounting can be tested without real time.
func openLoop(start, end time.Time, interval time.Duration, now func() time.Time,
	sleep func(time.Duration), op func(i int)) []opTiming {
	var out []opTiming
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return out
		}
		if d := due.Sub(now()); d > 0 {
			sleep(d)
		}
		sent := now()
		op(i)
		out = append(out, opTiming{due: due, sent: sent, done: now()})
	}
}
