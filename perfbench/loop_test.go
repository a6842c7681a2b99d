package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// With one sender busy for 30ms per request and requests due every
// 10ms, the queue grows: each request's latency must count the wait
// behind earlier ones, from its due time, while the generator itself
// keeps to the schedule.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const n, interval, service = 6, 10 * time.Millisecond, 30 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	out := openLoop(start, interval, n, 1, func(int) (string, error) {
		time.Sleep(service)
		return classCold, nil
	})
	if len(out) != n {
		t.Fatalf("got %d samples, want %d", len(out), n)
	}
	for i, s := range out {
		if s.Req != i {
			t.Fatalf("sample %d has Req %d", i, s.Req)
		}
		if want := start.Add(time.Duration(i) * interval); !s.Due.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, s.Due.Sub(start), want.Sub(start))
		}
		if s.late() < 0 {
			t.Errorf("request %d emitted before it was due", i)
		}
		// One sender: request i cannot finish before i+1 services have
		// run from the start, so its latency from due is at least
		// (i+1)·service − i·interval.
		if min := time.Duration(i+1)*service - time.Duration(i)*interval; s.latency() < min {
			t.Errorf("request %d latency %v, want >= %v (queueing must count)", i, s.latency(), min)
		}
	}
	// The generator does not wait for the busy sender: the last request
	// is issued long before the first few have been served.
	if last := out[n-1]; !last.Emitted.Before(out[2].Done) {
		t.Errorf("generator blocked: request %d emitted at %v, after request 2 finished at %v",
			n-1, last.Emitted.Sub(start), out[2].Done.Sub(start))
	}
}

func TestLatenessIsEmissionMinusDue(t *testing.T) {
	t0 := time.Now()
	s := sample{Due: t0, Emitted: t0.Add(7 * time.Millisecond), Done: t0.Add(20 * time.Millisecond)}
	if s.late() != 7*time.Millisecond || s.latency() != 20*time.Millisecond {
		t.Errorf("late %v latency %v, want 7ms and 20ms", s.late(), s.latency())
	}
}

// In a closed loop a caller's next request is due when its previous one
// completes, and request numbers come from one counter.
func TestClosedLoopChainsDueTimes(t *testing.T) {
	var calls atomic.Int64
	out := closedLoop(2, time.Now().Add(60*time.Millisecond), func(int) (string, error) {
		calls.Add(1)
		time.Sleep(10 * time.Millisecond)
		return classCold, nil
	})
	if int64(len(out)) != calls.Load() || len(out) < 4 {
		t.Fatalf("%d samples for %d calls", len(out), calls.Load())
	}
	seen := map[int]bool{}
	for i, s := range out {
		if s.Req != i || seen[s.Req] {
			t.Fatalf("request numbers not 0..n-1 in order: sample %d has %d", i, s.Req)
		}
		seen[s.Req] = true
		if s.Done.Before(s.Emitted) || s.Emitted.Before(s.Due) {
			t.Errorf("request %d: due %v emitted %v done %v out of order", i, s.Due, s.Emitted, s.Done)
		}
	}
	// Every due time but each caller's first is some request's Done.
	done := map[time.Time]bool{}
	for _, s := range out {
		done[s.Done] = true
	}
	chained := 0
	for _, s := range out {
		if done[s.Due] {
			chained++
		}
	}
	if chained != len(out)-2 {
		t.Errorf("%d of %d requests were due at a previous completion, want all but the 2 callers' first", chained, len(out))
	}
}
