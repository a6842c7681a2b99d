package main

import (
	"testing"
	"time"
)

func TestNearestRankPercentile(t *testing.T) {
	// 1..10 in scrambled order: the p-th percentile is the smallest
	// value with at least p% of the samples at or below it.
	s := []float64{7, 3, 10, 1, 9, 2, 8, 4, 6, 5}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {80, 8}, {81, 9}, {90, 9}, {95, 10}, {100, 10},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median of 3 samples = %v, want the 2nd smallest, 3", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if s[0] != 7 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{40, 75, 10, true}, // rank 30: samples 31..40 lie beyond
		{39, 75, 9, false}, // rank 30 (ceil 29.25): 9 beyond
		{50, 80, 10, true},
		{49, 80, 9, false},
		{100, 90, 10, true}, // p90 needs 100 samples
		{99, 90, 9, false},
		{199, 95, 9, false}, // p95 needs 200
		{200, 95, 10, true},
		{0, 80, 0, false},
	} {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got := tailSupported(c.n, c.p); got != c.ok {
			t.Errorf("tailSupported(%d, p%v) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
}

func TestEndToEndCountsFailuresAgainstAttempts(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	l := load{
		samples: []sample{
			{Due: t0, Emitted: t0, Done: at(100)},
			{Due: t0, Emitted: at(50), Done: at(300)}, // late emission still counts from due
			{Due: t0, Emitted: t0, Done: at(10), Err: errWrong},
			{Due: t0, Emitted: t0, Done: at(700)},
		},
		wall:  2 * time.Second,
		alloc: 3 << 20,
		peak:  5 << 20,
	}
	o := endToEnd(l, 1.5)
	if o.attempted != 4 || o.failed != 1 || o.wrong != 1 {
		t.Fatalf("attempted/failed/wrong = %d/%d/%d, want 4/1/1", o.attempted, o.failed, o.wrong)
	}
	want := map[string]float64{
		"p50_ms":            300, // of the ok latencies 100, 300, 700
		tailName:            700, // rank ceil(0.8·3) = 3
		"throughput_rps":    1.5, // 3 ok over 2s
		"ok_ratio":          0.75,
		"alloc_mib_per_req": 1,
		"peak_heap_mib":     5,
		"setup_s":           1.5,
	}
	for name, v := range want {
		if got := o.metrics[name].Value; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if got := o.info["slo_ok_ratio"]; got != 0.5 {
		t.Errorf("slo_ok_ratio = %v, want 0.5 (the failure and the 700ms request miss the budget)", got)
	}
}
