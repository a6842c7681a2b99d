package main

import (
	"testing"
	"time"
)

func span(id, parent int, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Start: start * time.Millisecond, End: end * time.Millisecond}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		span(1, 0, 0, 100),   // root
		span(2, 1, 10, 30),   // child
		span(3, 1, 20, 50),   // child overlapping 2: 10..50 covered once
		span(4, 1, 60, 70),   // disjoint child
		span(5, 3, 25, 35),   // grandchild: counts against 3, not 1
		span(6, 0, 200, 210), // separate root, no children
		span(7, 6, 205, 230), // child running past its parent: clipped
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - 40 - 10, // minus the union 10..50 and 60..70
		2: 20,
		3: 30 - 10,
		4: 10,
		5: 10,
		6: 10 - 5, // only 205..210 lies inside the parent
		7: 25,
	}
	for id, w := range want {
		if got := self[id]; got != w*time.Millisecond {
			t.Errorf("self(%d) = %v, want %v", id, got, w*time.Millisecond)
		}
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	kids := []Span{span(2, 1, 40, 60), span(3, 1, 0, 20), span(4, 1, 10, 30), span(5, 1, 30, 35), span(6, 1, 50, 55)}
	if got := covered(0, 100*time.Millisecond, kids); got != 55*time.Millisecond {
		t.Errorf("covered = %v, want 55ms (0..35 and 40..60)", got)
	}
	if got := covered(0, 100*time.Millisecond, nil); got != 0 {
		t.Errorf("covered with no children = %v", got)
	}
}

func TestRecorderNilIsFree(t *testing.T) {
	var r *Recorder
	ran := false
	r.Time("x", "", 0, r.Begin("y", "", 0, 0), func() { ran = true })
	r.Record("z", "", 0, time.Now(), time.Now())
	if !ran || r.Spans() != nil {
		t.Error("a nil recorder must run the call and record nothing")
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := NewRecorder()
	root := r.Begin("decomposed", classCold, 7, 0)
	r.Time("driver.parse", classCold, 7, root, func() { time.Sleep(2 * time.Millisecond) })
	r.End(root)
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	self := SelfTimes(spans)
	if self[spans[0].ID]+self[spans[1].ID] != spans[0].Dur() {
		t.Errorf("self times %v + %v do not add up to the root's %v", self[spans[0].ID], self[spans[1].ID], spans[0].Dur())
	}
	if got := selfByName(spans, self, "driver.parse"); len(got) != 1 || got[0] < 2 {
		t.Errorf("selfByName(driver.parse) = %v", got)
	}
}

// serve.residual_ms is what ValidateBody took beyond the decomposed
// stages on the server's path: the payload hash counts only when the
// result cache is on, the response encode never (the HTTP handler runs
// it after ValidateBody returns). It goes negative when the decomposed
// stages over-count.
func TestResidual(t *testing.T) {
	stages := map[string]time.Duration{
		"serve.decode": 40, "ingest.hash": 3, "driver.parse": 240, "config.build": 20,
		"config.seal": 1, "engine.run": 70, "report.wire": 1, "report.encode": 2,
	}
	sum := func(cached bool) time.Duration {
		var s time.Duration
		for name, d := range stages {
			if onServerPath(name, cached) {
				s += d * time.Millisecond
			}
		}
		return s
	}
	if got := residualMS(400*time.Millisecond, sum(true)); got != 400-375 {
		t.Errorf("residual with the result cache on = %v, want 25", got)
	}
	if got := residualMS(400*time.Millisecond, sum(false)); got != 400-372 {
		t.Errorf("residual with caches off = %v, want 28 (no hash on the path)", got)
	}
	if got := residualMS(300*time.Millisecond, sum(true)); got != -75 {
		t.Errorf("residual = %v, want -75", got)
	}
}

func TestSkew(t *testing.T) {
	if got := skew([]time.Duration{10, 30}); got != 1.5 {
		t.Errorf("skew = %v, want 1.5 (30 over a mean of 20)", got)
	}
	if got := skew(nil); got != 0 {
		t.Errorf("skew of no partitions = %v", got)
	}
}
