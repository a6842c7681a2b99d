// Package engine evaluates compiled CPL programs against a configuration
// store: the validation engine at the center of ConfValley's architecture
// (Figure 3 of the paper).
//
// Evaluation semantics, in brief:
//
//   - A specification's domains resolve to element sets via instance
//     discovery, honoring namespace prefix resolution and compartment
//     scoping (§4.2.2).
//   - Inside a compartment, each compartment instance forms an isolated
//     group: predicates over multiple domains pair values within a group
//     rather than over the Cartesian product; aggregate predicates
//     (consistent, unique, ordered) apply per group.
//   - Pipelines apply map- and reduce-style transformations step by step;
//     a guarded step ("if (nonempty) split('-')") drops elements that
//     fail its guard (§4.2.3).
//   - Quantifiers: ∀ (default) reports a violation per failing element;
//     ∃ reports one violation when no element satisfies the predicate;
//     ∃! when the satisfying count is not exactly one.
//   - Error messages are generated from the failing predicate and the
//     offending value (§4.4), overridable per specification via policy.
package engine

import (
	"context"
	"sort"
	"sync"
	"time"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/plan"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
)

// Options tune an engine.
type Options struct {
	// StopOnFirst aborts the run at the first violation (policy
	// on_violation 'stop').
	StopOnFirst bool
	// NaiveDiscovery bypasses the store's indexes, reproducing the
	// paper's initial (pre-optimization) discovery implementation for
	// the §5.2 ablation.
	NaiveDiscovery bool
	// Parallel > 1 splits the specifications into that many partitions
	// validated concurrently (Table 8's P10 mode); 0 (the zero value) or
	// a negative value uses one partition per hardware thread
	// (runtime.GOMAXPROCS), and 1 forces sequential execution. The
	// partition count is always clamped to the spec count. StopOnFirst
	// runs stay sequential unless Parallel > 1 is set explicitly.
	Parallel int
	// Partition selects how parallel runs split specs across workers;
	// the zero value is cost-model LPT bin-packing with round-robin
	// fallback (see partition.go).
	Partition PartitionStrategy
}

// Engine validates configuration data against compiled programs.
type Engine struct {
	Store *config.Store
	Env   simenv.Env
	Opts  Options

	// snap pins the store's sealed snapshot for the duration of one run,
	// so every partition of a parallel run — and every discovery inside
	// it — reads one consistent, lock-free view even if the store is
	// mutated concurrently (watch-round swaps, live loads).
	snap *config.Snapshot
	// ctx carries the current run's deadline/cancellation; nil outside a
	// RunContext call.
	ctx context.Context
}

// New returns an engine over a store with a simulated environment.
func New(st *config.Store) *Engine {
	return &Engine{Store: st, Env: simenv.NewSim()}
}

// Run evaluates every specification in the program and returns the
// report: the program is lowered to an executable plan (cached per
// program; see internal/plan) and the plan is executed. The AST
// interpreter that serves as the plan executor's oracle lives in
// internal/interp.
func (e *Engine) Run(prog *compiler.Program) *report.Report {
	return e.RunContext(context.Background(), prog)
}

// RunContext is Run under a caller-supplied context: a deadline or
// cancellation stops the run between specifications (and between
// domains and compartment groups inside one, rolling the cut-off spec
// back), returning the partial report marked Interrupted.
//
// A sequential run (effective parallelism 1) stops exactly after the
// spec during which the cancellation fired. A parallel run has no global
// "next spec": each partition stops at its own next spec boundary, so
// how many specs ran depends on scheduling. Its contract is that the
// report is Interrupted, carries no spec errors, and SpecsRun counts
// exactly the specs that ran to completion — each with a noted outcome
// — and no spec starts after the cancellation is observed. All worker
// goroutines drain before RunContext returns; cancellation never leaks
// a goroutine.
func (e *Engine) RunContext(ctx context.Context, prog *compiler.Program) *report.Report {
	if prog.Policies["on_violation"] == "stop" {
		e.Opts.StopOnFirst = true
	}
	e.ctx = ctx
	e.snap = e.Store.Snapshot()
	start := time.Now()
	p := plan.For(prog)
	var rep *report.Report
	if n := e.effectiveParallel(len(p.Specs)); n > 1 {
		rep = runParts(e.partitionSpecs(p, allSpecs(len(p.Specs)), n), e.partRunner(p))
	} else {
		rep = &report.Report{}
		p.Run(e.runtime(), rep)
	}
	rep.Duration = time.Since(start)
	return rep
}

// runtime binds the engine's pinned snapshot, environment and options
// to a plan runtime.
func (e *Engine) runtime() *plan.Runtime {
	return &plan.Runtime{
		Store:          e.Store,
		Snap:           e.snapshot(),
		Env:            e.Env,
		NaiveDiscovery: e.Opts.NaiveDiscovery,
		StopOnFirst:    e.Opts.StopOnFirst,
		Ctx:            e.context(),
	}
}

// context returns the run's context, defaulting to Background for
// callers that evaluate without going through RunContext.
func (e *Engine) context() context.Context {
	if e.ctx != nil {
		return e.ctx
	}
	return context.Background()
}

// snapshot returns the run-pinned snapshot, falling back to the store's
// current one for callers that evaluate without going through Run.
func (e *Engine) snapshot() *config.Snapshot {
	if e.snap != nil {
		return e.snap
	}
	return e.Store.Snapshot()
}

// allSpecs returns the execution positions 0..n-1.
func allSpecs(n int) []int {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// partRunner returns the per-partition loop of a parallel run: execute
// the partition's specs in ascending order, checking for cancellation at
// every spec boundary. Partitions are spec-index sets chosen by the
// configured strategy (cost-model LPT by default; see partition.go);
// merged reports are deterministic because violations carry the spec's
// execution position and report.Merge restores sequential order.
func (e *Engine) partRunner(p *plan.Plan) func(idxs []int, rep *report.Report) {
	rt := e.runtime() // read-only during execution; safe to share
	return func(idxs []int, rep *report.Report) {
		for _, j := range idxs {
			if rt.Canceled() {
				rep.Interrupted = true
				return
			}
			p.Specs[j].Run(rt, rep)
			if rep.Interrupted {
				return
			}
		}
	}
}

// reportPool recycles partition-local reports: a parallel run allocates
// one report per partition per round, merges it and drops it, so watch
// loops and service traffic churn violation slices and perSpec maps at
// a rate the pool absorbs. Only partition-local reports ever enter the
// pool — reports returned to callers are never recycled.
var reportPool = sync.Pool{New: func() any { return new(report.Report) }}

// runParts executes each partition in its own goroutine against its own
// pooled report and merges them in partition order. Shared by the full
// parallel path and the incremental subset path.
func runParts(parts [][]int, runPart func(idxs []int, rep *report.Report)) *report.Report {
	reps := make([]*report.Report, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep := reportPool.Get().(*report.Report)
			rep.Reset()
			partStart := time.Now()
			runPart(parts[i], rep)
			rep.Duration = time.Since(partStart)
			reps[i] = rep
		}(i)
	}
	wg.Wait()
	out := &report.Report{}
	for _, r := range reps {
		out.Merge(r)
		reportPool.Put(r)
	}
	return out
}

// PartitionTimes runs each of n partitions sequentially and reports each
// partition's wall time; cvbench uses it for Table 8's P10 columns — and
// the load harness for the partition-strategy ablation's makespan —
// without depending on the host's core count. Partitions follow
// Opts.Partition, clamped to the spec count.
func (e *Engine) PartitionTimes(prog *compiler.Program, n int) []time.Duration {
	e.snap = e.Store.Snapshot()
	p, rt := plan.For(prog), e.runtime()
	parts := e.partitionSpecs(p, allSpecs(len(p.Specs)), n)
	out := make([]time.Duration, 0, n)
	for _, part := range parts {
		rep := &report.Report{}
		start := time.Now()
		for _, j := range part {
			p.Specs[j].Run(rt, rep)
		}
		out = append(out, time.Since(start))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
