// Package backoff computes capped, doubling, jittered retry delays and
// waits them out under a context. The REST driver's fetch retries and
// the service client's request retries share it; each keeps its own
// retry loop, because they retry on different signals.
package backoff

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// rng backs the jitter. Guarded by its own mutex: concurrent fetches and
// client requests share it.
var (
	mu  sync.Mutex
	rng = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// Delay returns the wait before retry n (n = 1 is the delay after the
// first failure): base doubled n-1 times, capped at max when max > 0,
// plus a uniform random addition in [0, jitter·d). A zero jitter gives
// the exact capped delay.
func Delay(n int, base, max time.Duration, jitter float64) time.Duration {
	d := base
	for i := 1; i < n; i++ {
		d *= 2
		if max > 0 && d >= max {
			d = max
			break
		}
	}
	if max > 0 && d > max {
		d = max
	}
	if jitter > 0 && d > 0 {
		mu.Lock()
		f := rng.Float64()
		mu.Unlock()
		d += time.Duration(f * jitter * float64(d))
	}
	return d
}

// Sleep waits for d, returning early with ctx.Err() when ctx is done. A
// non-positive d returns ctx.Err() at once.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
