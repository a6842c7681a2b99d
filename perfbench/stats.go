package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than one unlucky request.
const minBeyond = 10

// tailPct is the tail percentile every workload reports. It keeps
// minBeyond samples beyond it on every workload: at the run length
// BENCHMARK.json fixes, cold-xml completes 60–100 requests a run on a
// 2-vCPU host, and p80 needs 50. p95 would need 200, over two minutes
// of cold-xml per run.
const (
	tailPct  = 80
	tailName = "p80_ms"
)

// rank is the 1-based nearest-rank position of percentile p in n
// sorted samples: the smallest r with r/n >= p/100.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is the nearest-rank percentile of samples, which need not
// be sorted; 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the nearest-rank 50th percentile.
func median(samples []float64) float64 { return percentile(samples, 50) }

// beyond counts the samples ranked above percentile p of n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailSupported reports whether percentile p of n samples has at least
// minBeyond samples beyond it.
func tailSupported(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// mib converts bytes to fractional MiB.
func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
