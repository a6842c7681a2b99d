package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"confvalley/internal/config"
	"confvalley/internal/driver"
	"confvalley/internal/infer"
	"confvalley/internal/report"
	"confvalley/internal/runner"
	"confvalley/internal/serve"
)

// sloMS is the latency budget a validation in the deployment path must
// meet (SNIPPETS.md's rollout guide: "Validation completes in < 500ms").
const sloMS = 500

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

const (
	tenant   = "bench"
	specName = "suite"
)

// errWrong marks a response whose verdict differs from the gated one.
var errWrong = errors.New("verdict differs from the gated reference")

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	wrong             int // responses that failed the per-request verdict check
	metrics           map[string]metric
	info              map[string]any // printed on its own line, not judged
}

// bench carries one invocation's settings.
type bench struct {
	seed    int64
	seconds time.Duration
	rec     *Recorder // nil unless --trace 1
	tmp     string    // scratch directory inside the checkout
	clients int       // service-mix's open-loop connections
}

// service is a serve.Server behind a loopback HTTP listener and a
// client for it.
type service struct {
	srv *serve.Server
	hs  *httptest.Server
	c   *serve.Client
	dir string
}

// startService builds a server from cfg, gives it a fresh journal
// directory under root when durable is set, recovers it and starts its
// listener.
func startService(cfg serve.Config, durable bool, root string) (*service, error) {
	s := &service{}
	if durable {
		dir, err := os.MkdirTemp(root, "state-")
		if err != nil {
			return nil, err
		}
		s.dir, cfg.StateDir = dir, dir
	}
	s.srv = serve.New(cfg)
	if err := s.srv.Recover(); err != nil {
		s.close()
		return nil, fmt.Errorf("recover: %w", err)
	}
	s.hs = httptest.NewServer(s.srv.Handler())
	s.c = &serve.Client{Base: s.hs.URL, Tenant: tenant}
	return s, nil
}

func (s *service) close() {
	if s.hs != nil {
		s.hs.Close()
	}
	s.srv.Close()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// inferSpec parses the training bytes the way cvinfer does and mines
// the CPL spec from them.
func inferSpec(rec *Recorder, parent int, format string, train []byte) (string, error) {
	st := config.NewStore()
	var err error
	rec.Time("driver.parse_train", "", 0, parent, func() {
		_, err = driver.LoadInto(st, format, train, "train."+format, "")
	})
	if err != nil {
		return "", fmt.Errorf("parsing training data: %w", err)
	}
	var spec string
	rec.Time("infer", "", 0, parent, func() {
		spec = infer.Infer(st, infer.Defaults()).GenerateCPL()
	})
	return spec, nil
}

// timeSetup runs set-up setupReps times from a collected heap, tears
// down every product but the last, and returns the last product and
// the median wall time in seconds.
func timeSetup[T any](rec *Recorder, f func(parent int) (T, func(), error)) (T, float64, error) {
	var keep T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		id := rec.Begin("setup", "", 0, 0)
		t0 := time.Now()
		v, teardown, err := f(id)
		secs = append(secs, time.Since(t0).Seconds())
		rec.End(id)
		if err != nil {
			return keep, 0, fmt.Errorf("set-up: %w", err)
		}
		if i < setupReps-1 {
			teardown()
		}
		keep = v
	}
	return keep, median(secs), nil
}

// canon renders a wire report with the fields that legitimately differ
// between equivalent runs — wall time and incremental reuse — zeroed.
func canon(w *report.Wire) string {
	cp := *w
	cp.DurationNS = 0
	cp.SpecsReused = 0
	b, err := json.Marshal(&cp)
	if err != nil {
		panic(err) // a wire report of plain fields always encodes
	}
	return string(b)
}

// coldReference validates a payload with a fresh cold CLI-path runner
// and checks it reports every true error the generator injected.
func coldReference(ctx context.Context, spec string, p payload) (*report.Wire, error) {
	res, err := runner.New(runner.Options{}).Run(ctx, runner.Job{
		SpecSrc:  spec,
		Payloads: []runner.Payload{{Name: p.Name, Format: p.Format, Data: p.Data}},
	})
	if err != nil {
		return nil, fmt.Errorf("cold reference run: %w", err)
	}
	w := res.Report.Wire()
	if missed := missedTrueErrors(p, w); len(missed) > 0 {
		return nil, fmt.Errorf("%d injected true error(s) not reported, first %s (%s)",
			len(missed), missed[0].Key, missed[0].Kind)
	}
	return w, nil
}

// gateReferences computes the gated reference of each distinct payload:
// its canonical cold report and violation count.
func gateReferences(ctx context.Context, spec string, ps []payload) (canons []string, counts []int, err error) {
	for i, p := range ps {
		w, err := coldReference(ctx, spec, p)
		if err != nil {
			return nil, nil, fmt.Errorf("gate: payload %d: %w", i, err)
		}
		canons = append(canons, canon(w))
		counts = append(counts, len(w.Violations))
	}
	return canons, counts, nil
}

// gateThrough sends each payload through a service client and fails
// unless the answer is byte-identical to its reference.
func gateThrough(ctx context.Context, c *serve.Client, ps []payload, canons []string, what string) error {
	for i, p := range ps {
		resp, err := c.Validate(ctx, specName, p.Req)
		if err != nil {
			return fmt.Errorf("gate (%s): payload %d: %w", what, i, err)
		}
		if got := canon(resp.Report); got != canons[i] {
			return fmt.Errorf("gate (%s): payload %d differs from a cold run\nservice: %.300s\n   cold: %.300s",
				what, i, got, canons[i])
		}
	}
	return nil
}

// checkVerdict is the per-request check of the measured phase: a
// complete report with the gated number of violations.
func checkVerdict(violations int, interrupted bool, want int) error {
	if violations != want || interrupted {
		return errWrong
	}
	return nil
}

// checkResponse applies checkVerdict to a service response.
func checkResponse(resp *serve.ValidateResponse, err error, want int) error {
	if err != nil {
		return err
	}
	if resp.Report == nil {
		return errWrong
	}
	return checkVerdict(len(resp.Report.Violations), resp.Report.Interrupted, want)
}

// load is one measured (or traced) load phase.
type load struct {
	samples []sample
	wall    time.Duration
	alloc   uint64 // bytes allocated by the process during the phase
	peak    uint64 // highest sampled heap in use, bytes
	gcFrac  float64
	gcPause float64 // ms
	queue   []float64
}

// measure runs drive from a collected heap and records the process-wide
// allocation, heap peak and GC cost around it. When srv is set and the
// phase is traced, the server's in-flight plus queued requests are
// sampled every 10ms.
func measure(b *bench, srv *serve.Server, drive func() []sample) load {
	runtime.GC()
	var l load
	stopQ, qdone := make(chan struct{}), make(chan []float64, 1)
	if srv != nil && b.rec != nil {
		go func() {
			var qs []float64
			t := time.NewTicker(10 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopQ:
					qdone <- qs
					return
				case <-t.C:
					h := srv.Health()
					qs = append(qs, float64(h.InFlight+h.Queued))
				}
			}
		}()
	} else {
		qdone <- nil
	}
	gw := startGCWindow()
	a0 := totalAlloc()
	hp := startHeapPeak()
	t0 := time.Now()
	l.samples = drive()
	l.wall = time.Since(t0)
	l.peak = hp.Stop()
	l.alloc = totalAlloc() - a0
	l.gcFrac, l.gcPause = gw.end()
	close(stopQ)
	l.queue = <-qdone
	return l
}

// endToEnd derives the end-to-end metrics of a measured phase. The
// share of requests within the latency budget and the error rate go on
// the info line, not into the metrics: the first sits at 0 or 1 on
// workloads whose median is far from the budget and flips between them
// on one whose median is near it, and the second is 0 on a healthy
// run; ok_ratio carries the failures.
func endToEnd(l load, setupS float64) outcome {
	var lat []float64
	byClass := map[string][]float64{}
	ok, inSLO, wrong := 0, 0, 0
	for _, s := range l.samples {
		if errors.Is(s.Err, errWrong) {
			wrong++
		}
		if s.Err != nil {
			continue
		}
		ok++
		d := ms(s.latency())
		lat = append(lat, d)
		byClass[s.Class] = append(byClass[s.Class], d)
		if d < sloMS {
			inSLO++
		}
	}
	n := len(l.samples)
	if !tailSupported(len(lat), tailPct) {
		fmt.Fprintf(os.Stderr, "perfbench: warning: p%d over %d samples has %d beyond it (want >= %d)\n",
			tailPct, len(lat), beyond(len(lat), tailPct), minBeyond)
	}
	return outcome{
		attempted: n,
		failed:    n - ok,
		wrong:     wrong,
		metrics: map[string]metric{
			"p50_ms":            {median(lat), "ms"},
			tailName:            {percentile(lat, tailPct), "ms"},
			"throughput_rps":    {float64(ok) / l.wall.Seconds(), "1/s"},
			"ok_ratio":          {ratio(float64(ok), float64(n)), "ratio"},
			"alloc_mib_per_req": {ratio(mib(l.alloc), float64(ok)), "MiB"},
			"peak_heap_mib":     {mib(l.peak), "MiB"},
			"setup_s":           {setupS, "s"},
		},
		info: map[string]any{
			"samples":      len(lat),
			"tail_beyond":  beyond(len(lat), tailPct),
			"slo_ms":       sloMS,
			"slo_ok_ratio": ratio(float64(inSLO), float64(n)),
			"error_rate":   ratio(float64(n-ok), float64(n)),
			"mean_ms":      mean(lat),
			"class_p50_ms": classMedians(byClass),
		},
	}
}

func classMedians(by map[string][]float64) map[string]float64 {
	out := map[string]float64{}
	for c, v := range by {
		out[c] = median(v)
	}
	return out
}
