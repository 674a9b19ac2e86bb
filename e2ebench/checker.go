package main

// checker decodes and checks responses on its own goroutine, in the order
// they were handed over, so the request loop spends no time on them.
type checker struct {
	ch   chan func()
	done chan struct{}
}

func startChecker() *checker {
	// The buffer decouples decoding from the request loop; it is bounded so
	// that a checker falling behind slows the generator instead of holding
	// an unbounded backlog of response bodies.
	c := &checker{ch: make(chan func(), 64), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for f := range c.ch {
			f()
		}
	}()
	return c
}

// add queues one check; the caller must not touch what f captures again.
func (c *checker) add(f func()) { c.ch <- f }

// wait runs every queued check and stops the checker.
func (c *checker) wait() {
	close(c.ch)
	<-c.done
}
