package experiments

import (
	"context"
	"fmt"
	"time"

	"confvalley/internal/azuregen"
	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/driver"
	"confvalley/internal/engine"
	"confvalley/internal/faultinject"
	"confvalley/internal/infer"
	"confvalley/internal/ingest"
	"confvalley/internal/simenv"
)

// FaultToleranceResult quantifies what the fault-tolerance layer costs
// when nothing goes wrong — the overhead columns are the acceptance
// numbers (the budget is <2%) — plus one degraded-round timing for
// context.
type FaultToleranceResult struct {
	Specs     int
	Instances int
	Sources   int

	// Validation: a plain engine run (per-spec recover is always on)
	// vs the same run through the cancellable-context entry point.
	ValidateDirect      time.Duration
	ValidateCtx         time.Duration
	ValidateOverheadPct float64

	// Ingestion: raw driver parses straight into a store vs the same
	// healthy sources through the graceful-degradation loader with its
	// outcome accounting, panic containment, and staleness bookkeeping.
	IngestDirect      time.Duration
	IngestLoader      time.Duration
	IngestOverheadPct float64

	// One loader round with a 30% injected failure rate over warm
	// sources: the price of a genuinely degraded round (stale serving
	// included), not part of the overhead budget.
	IngestDegraded time.Duration
}

// FaultTolerance measures the happy-path cost of the robustness
// machinery added around ingestion and execution. Timings are best-of-
// five to damp scheduler noise; the sequential engine path is measured
// so the numbers compose with the other experiments.
func FaultTolerance(cfg Config) FaultToleranceResult {
	a := azuregen.GenerateA(cfg.ScaleA, cfg.Seed)
	res := infer.Infer(a.Store, infer.Defaults())
	prog, err := compiler.Compile(res.GenerateCPL())
	if err != nil {
		panic(err)
	}

	r := FaultToleranceResult{
		Specs:     len(prog.Specs),
		Instances: len(a.Store.Instances()),
	}

	eng := engine.Engine{Store: a.Store, Env: simenv.NewSim()}
	r.ValidateDirect = bestOf(5, func() time.Duration {
		start := time.Now()
		eng.Run(prog)
		return time.Since(start)
	})
	r.ValidateCtx = bestOf(5, func() time.Duration {
		ctx, cancel := context.WithCancel(context.Background())
		start := time.Now()
		eng.RunContext(ctx, prog)
		d := time.Since(start)
		cancel()
		return d
	})
	r.ValidateOverheadPct = overheadPct(r.ValidateDirect, r.ValidateCtx)

	// Ingestion corpus: many small healthy JSON sources, the shape of a
	// service's per-component configuration files.
	const nSources = 64
	r.Sources = nSources
	type src struct {
		name string
		data []byte
	}
	var srcs []src
	var loaderSrcs []ingest.Source
	for i := 0; i < nSources; i++ {
		name := fmt.Sprintf("component%02d.json", i)
		data := []byte(fmt.Sprintf(
			`{"component%02d": {"timeout": "%d", "retries": "%d", "endpoint": "svc-%d.internal", "mode": "fast"}}`,
			i, 10+i, i%5, i))
		srcs = append(srcs, src{name, data})
		d := data
		loaderSrcs = append(loaderSrcs, ingest.Source{
			Name:   name,
			Format: "json",
			Fetch:  func(context.Context) ([]byte, error) { return d, nil },
		})
	}

	r.IngestDirect = bestOf(5, func() time.Duration {
		st := config.NewStore()
		start := time.Now()
		for _, s := range srcs {
			if _, err := driver.LoadInto(st, "json", s.data, s.name, ""); err != nil {
				panic(err)
			}
		}
		return time.Since(start)
	})
	loader := ingest.NewLoader(0)
	r.IngestLoader = bestOf(5, func() time.Duration {
		st := config.NewStore()
		start := time.Now()
		rep := loader.Load(context.Background(), st, loaderSrcs)
		d := time.Since(start)
		if rep.Degraded() {
			panic("healthy ingestion round degraded")
		}
		return d
	})
	r.IngestOverheadPct = overheadPct(r.IngestDirect, r.IngestLoader)

	// A degraded round over warm sources: 30% of fetches fail and are
	// served from the last good parse.
	sched := faultinject.NewSchedule(cfg.Seed)
	sched.ErrorRate = 0.3
	var flaky []ingest.Source
	for i, s := range loaderSrcs {
		flaky = append(flaky, ingest.Source{
			Name:   s.Name,
			Format: s.Format,
			Fetch:  sched.Wrap(loaderSrcs[i].Fetch),
		})
	}
	r.IngestDegraded = bestOf(5, func() time.Duration {
		st := config.NewStore()
		start := time.Now()
		loader.Load(context.Background(), st, flaky)
		return time.Since(start)
	})

	cfg.printf("Fault tolerance: happy-path overhead (%d specs over %d instances; %d sources)\n",
		r.Specs, r.Instances, r.Sources)
	cfg.printf("%-28s %12s %12s %9s\n", "path", "baseline", "guarded", "overhead")
	cfg.printf("%-28s %12v %12v %8.2f%%\n", "validation (run vs ctx run)",
		r.ValidateDirect.Round(time.Microsecond), r.ValidateCtx.Round(time.Microsecond), r.ValidateOverheadPct)
	cfg.printf("%-28s %12v %12v %8.2f%%\n", "ingestion (direct vs loader)",
		r.IngestDirect.Round(time.Microsecond), r.IngestLoader.Round(time.Microsecond), r.IngestOverheadPct)
	cfg.printf("%-28s %25v\n", "degraded round (30% faults)", r.IngestDegraded.Round(time.Microsecond))
	return r
}

// overheadPct returns how much slower b is than a, in percent; negative
// when b was faster (timing noise on small absolute durations).
func overheadPct(a, b time.Duration) float64 {
	if a == 0 {
		return 0
	}
	return (float64(b) - float64(a)) / float64(a) * 100
}
