package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request as its caller saw it.
type sample struct {
	Req   int
	Class string
	// Due is when the request should have gone out: its scheduled time
	// in an open loop, the caller's previous completion in a closed one.
	Due time.Time
	// Emitted is when the load generator actually issued it.
	Emitted time.Time
	Done    time.Time
	Err     error
}

// latency runs from when the request was due, so a stall also charges
// the wait it imposes on requests queued behind it.
func (s sample) latency() time.Duration { return s.Done.Sub(s.Due) }

// late is how far behind schedule the generator issued the request.
func (s sample) late() time.Duration { return s.Emitted.Sub(s.Due) }

// closedLoop runs callers that each send their next request only when
// the previous one completes, until deadline. Request numbers are drawn
// from one shared counter, so the request sequence does not depend on
// which caller is faster. Requests in flight at the deadline finish and
// are counted.
func closedLoop(callers int, deadline time.Time, do func(req int) (class string, err error)) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := time.Now()
			for due.Before(deadline) {
				req := int(next.Add(1) - 1)
				s := sample{Req: req, Due: due, Emitted: time.Now()}
				s.Class, s.Err = do(req)
				s.Done = time.Now()
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
				due = s.Done
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].Req < out[j].Req })
	return out
}

// openLoop issues request i at start + i×interval, for i < n, whether
// or not earlier requests have completed, on conns concurrent senders.
// A request that finds every sender busy waits in the queue, and that
// wait is part of its latency.
func openLoop(start time.Time, interval time.Duration, n, conns int, do func(req int) (class string, err error)) []sample {
	type job struct {
		req          int
		due, emitted time.Time
	}
	// Sized to the number of sends, so the generator never blocks on
	// busy senders and its lateness measures only its own lag.
	queue := make(chan job, n)
	out := make([]sample, n)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				s := sample{Req: j.req, Due: j.due, Emitted: j.emitted}
				s.Class, s.Err = do(j.req)
				s.Done = time.Now()
				out[j.req] = s
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queue <- job{req: i, due: due, emitted: time.Now()}
	}
	close(queue)
	wg.Wait()
	return out
}
