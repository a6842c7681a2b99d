package main

// The traced run (--trace 1): the workload's set-up with a span around
// each layer call, its load loop for half the run with every request
// kept as a class-labelled span, then the replay of its request bytes
// (replay.go) for the other half. It prints the per-layer metrics.

import (
	"context"
	"fmt"
	"os"
	"time"

	"confvalley/internal/compiler"
	"confvalley/internal/durable"
	"confvalley/internal/lint"
	"confvalley/internal/serve"
)

// perLayer lists every per-layer metric a traced run prints, in the
// order BENCHMARK.json lists them.
var perLayer = []struct{ name, unit string }{
	{"serve.roundtrip_ms", "ms"},
	{"serve.validate_body_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.residual_ms", "ms"},
	{"ingest.hash_ms", "ms"},
	{"driver.parse_ms", "ms"},
	{"driver.parse_alloc_mib", "MiB"},
	{"driver.parse_mib_per_s", "MiB/s"},
	{"config.build_ms", "ms"},
	{"config.seal_ms", "ms"},
	{"config.diff_ms", "ms"},
	{"config.discovery_hit_ratio", "ratio"},
	{"engine.run_ms", "ms"},
	{"engine.run_alloc_mib", "MiB"},
	{"engine.partition_skew", "ratio"},
	{"engine.specs_reused_ratio", "ratio"},
	{"plan.cache_hit_ratio", "ratio"},
	{"report.wire_ms", "ms"},
	{"report.encode_ms", "ms"},
	{"report.violations", "count"},
	{"serve.result_hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"ingest.snapshot_hit_ratio", "ratio"},
	{"serve.queue_depth_mean", "count"},
	{"serve.rejected_busy", "count"},
	{"serve.register_ms", "ms"},
	{"compiler.compile_ms", "ms"},
	{"lint.run_ms", "ms"},
	{"durable.append_ms", "ms"},
	{"infer.ms", "ms"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_pause_ms", "ms"},
	{"gen.late_ms", "ms"},
	{"trace.p50_ms", "ms"},
}

// spanMetrics maps span names to the per-layer metric that reports the
// median self time of the spans so named: the span's duration minus
// what its child spans cover.
var spanMetrics = map[string]string{
	"serve.roundtrip":     "serve.roundtrip_ms",
	"serve.validate_body": "serve.validate_body_ms",
	"serve.decode":        "serve.decode_ms",
	"ingest.hash":         "ingest.hash_ms",
	"driver.parse":        "driver.parse_ms",
	"config.build":        "config.build_ms",
	"config.seal":         "config.seal_ms",
	"config.diff":         "config.diff_ms",
	"engine.run":          "engine.run_ms",
	"report.wire":         "report.wire_ms",
	"report.encode":       "report.encode_ms",
	"serve.register":      "serve.register_ms",
	"compiler.compile":    "compiler.compile_ms",
	"lint.run":            "lint.run_ms",
	"durable.append":      "durable.append_ms",
	"infer":               "infer.ms",
}

// tracedWorkload is what a workload hands the traced run.
type tracedWorkload struct {
	spec string
	// srv is the workload's own server, nil for the library path.
	srv *serve.Server
	// drive runs the workload's load loop until the deadline.
	drive func(deadline time.Time) []sample
	// replay configuration: the workload's server config and training
	// bytes, and one replay round (called until the time is used).
	cfg               serve.Config
	durable, fixedRef bool
	trainFormat       string
	train             []byte
	replayRound       func(ctx context.Context, r *replayer, round int) error
}

func runTraced(ctx context.Context, b *bench, w tracedWorkload) (outcome, error) {
	vals := map[string][]float64{}
	if err := registerProbes(b, w.spec); err != nil {
		return outcome{}, err
	}

	half := b.seconds / 2
	var st0 serve.StatsInfo
	if w.srv != nil {
		st0 = w.srv.Stats()
	}
	l := measure(b, w.srv, func() []sample { return w.drive(time.Now().Add(half)) })
	var st1 serve.StatsInfo
	if w.srv != nil {
		st1 = w.srv.Stats()
	}
	reads := 0
	for _, s := range l.samples {
		b.rec.Record("request", s.Class, s.Req, s.Emitted, s.Done)
		if s.Class != classWrite {
			reads++
		}
		vals["gen.late_ms"] = append(vals["gen.late_ms"], ms(s.late()))
	}
	e2e := endToEnd(l, 0)
	one := func(name string, v float64) { vals[name] = []float64{v} }
	one("trace.p50_ms", e2e.metrics["p50_ms"].Value)
	one("runtime.gc_cpu_fraction", l.gcFrac)
	one("runtime.gc_pause_ms", l.gcPause)
	one("serve.queue_depth_mean", mean(l.queue))
	one("serve.rejected_busy", float64(st1.RejectedBusy-st0.RejectedBusy))
	one("serve.result_hit_ratio", ratio(float64(st1.ResultCacheHits-st0.ResultCacheHits), float64(reads)))
	one("serve.coalesced_ratio", ratio(float64(st1.CoalescedRequests-st0.CoalescedRequests), float64(reads)))
	one("ingest.snapshot_hit_ratio", ratio(float64(st1.SnapshotCacheHits-st0.SnapshotCacheHits), float64(reads)))

	r, err := newReplayer(ctx, b, w.cfg, w.durable, w.spec, w.trainFormat, w.train)
	if err != nil {
		return outcome{}, fmt.Errorf("replay set-up: %w", err)
	}
	defer r.close()
	r.fixedRef = w.fixedRef
	deadline := time.Now().Add(half)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		if err := w.replayRound(ctx, r, round); err != nil {
			return outcome{}, fmt.Errorf("gate (traced replay): %w", err)
		}
	}
	for k, v := range r.vals {
		vals[k] = append(vals[k], v...)
	}
	spans := b.rec.Spans()
	self := SelfTimes(spans)
	for span, metric := range spanMetrics {
		vals[metric] = selfByName(spans, self, span)
	}

	e2e.metrics = map[string]metric{}
	for _, m := range perLayer {
		v := vals[m.name]
		if len(v) == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: warning: no samples for %s\n", m.name)
		}
		e2e.metrics[m.name] = metric{median(v), m.unit}
	}
	return e2e, nil
}

// registerProbes times a registration's parts one by one over the
// workload's spec — compile, lint, and a journal append on a scratch
// log — and then a whole RegisterSpec on a durable scratch server.
func registerProbes(b *bench, spec string) error {
	for i := 0; i < setupReps; i++ {
		root := b.rec.Begin("probe.register", "", 0, 0)
		var err error
		add := func(name string, f func()) { b.rec.Time(name, "", 0, root, f) }
		add("compiler.compile", func() { _, err = compiler.Compile(spec) })
		if err != nil {
			return fmt.Errorf("compile probe: %w", err)
		}
		add("lint.run", func() { lint.Run(specName, spec, lint.Options{}) })
		dir, err := os.MkdirTemp(b.tmp, "journal-")
		if err != nil {
			return err
		}
		log, _, _, err := durable.Open(dir)
		if err != nil {
			return fmt.Errorf("journal probe: %w", err)
		}
		add("durable.append", func() {
			err = log.Append(durable.Record{Op: durable.OpRegister, Tenant: tenant, Spec: specName, Src: spec})
		})
		log.Close()
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("journal probe: %w", err)
		}
		svc, err := startService(serve.Config{}, true, b.tmp)
		if err != nil {
			return err
		}
		add("serve.register", func() { _, err = svc.srv.RegisterSpec(tenant, specName, spec) })
		svc.close()
		b.rec.End(root)
		if err != nil {
			return fmt.Errorf("register probe: %w", err)
		}
	}
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
