package engine

// Context cancellation and panic isolation: the robustness contract of
// the execution layer. A run under a canceled context stops mid-flight
// with a partial report marked Interrupted and no leaked goroutines; a
// panicking plug-in predicate is contained to a spec-level error with the
// sibling specs' verdicts untouched, identically on the plan executor
// and the interpreter oracle (internal/interp).

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/faultinject"
	"confvalley/internal/interp"
	"confvalley/internal/plan"
	"confvalley/internal/predicate"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
	"confvalley/internal/value"
)

// ctxHook is called by the ctxhook predicate; tests install a cancel
// func (or any probe) for the duration of one run.
var ctxHook atomic.Value // of func()

// specProbe is called by the specprobe predicate with the value under
// test; the parallel-cancellation test uses it to observe every spec
// start.
var specProbe atomic.Value // of func(value.V)

func init() {
	predicate.Register(&predicate.Func{
		Name:  "ctxhook",
		Arity: 0,
		Check: func(env simenv.Env, args []value.V, v value.V) (bool, error) {
			if h, ok := ctxHook.Load().(func()); ok && h != nil {
				h()
			}
			return true, nil
		},
	})
	predicate.Register(&predicate.Func{
		Name:  "specprobe",
		Arity: 0,
		Check: func(env simenv.Env, args []value.V, v value.V) (bool, error) {
			if h, ok := specProbe.Load().(func(value.V)); ok && h != nil {
				h(v)
			}
			return true, nil
		},
	})
	predicate.Register(&predicate.Func{
		Name:  "panicboom",
		Arity: 0,
		Check: func(env simenv.Env, args []value.V, v value.V) (bool, error) {
			if v.Raw == "boom" {
				panic("predicate exploded on " + v.Raw)
			}
			return true, nil
		},
	})
}

func compileSrc(t *testing.T, src string) *compiler.Program {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// cancelFixture builds a store and program with nSpecs specs over
// distinct keys, where spec cancelAt's predicate fires the ctxhook. Each
// spec gets a distinct range so the compiler's Figure 4(b) optimization
// cannot merge them into one.
func cancelFixture(t *testing.T, nSpecs, cancelAt int) (*config.Store, *compiler.Program) {
	t.Helper()
	st := config.NewStore()
	var src strings.Builder
	for i := 0; i < nSpecs; i++ {
		kv(st, fmt.Sprintf("app.k%d", i), "1")
		if i == cancelAt {
			fmt.Fprintf(&src, "$app.k%d -> ctxhook\n", i)
		} else {
			fmt.Fprintf(&src, "$app.k%d -> int & [0, %d]\n", i, 100+i)
		}
	}
	return st, compileSrc(t, src.String())
}

// A sequential run stops exactly after the spec during which the
// cancellation fired — on the plan executor at Parallel 1 and on the
// interpreter oracle, which is always sequential.
func TestRunContextCancelStopsMidRun(t *testing.T) {
	executors := []struct {
		name string
		run  func(ctx context.Context, st *config.Store, prog *compiler.Program) *report.Report
	}{
		{"plan", func(ctx context.Context, st *config.Store, prog *compiler.Program) *report.Report {
			eng := New(st)
			eng.Opts.Parallel = 1
			return eng.RunContext(ctx, prog)
		}},
		{"interp", func(ctx context.Context, st *config.Store, prog *compiler.Program) *report.Report {
			return interp.Run(ctx, st, simenv.NewSim(), prog, interp.Options{})
		}},
	}
	for _, ex := range executors {
		t.Run(ex.name, func(t *testing.T) {
			st, prog := cancelFixture(t, 10, 4)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctxHook.Store(func() { cancel() })
			defer ctxHook.Store(func() {})

			rep := ex.run(ctx, st, prog)
			if !rep.Interrupted {
				t.Fatalf("report not marked Interrupted")
			}
			if rep.SpecsRun != 5 {
				t.Fatalf("SpecsRun = %d; cancellation during spec 4 should stop after it completes", rep.SpecsRun)
			}
			if len(rep.SpecErrors) != 0 {
				t.Fatalf("cancellation produced spec errors: %v", rep.SpecErrors)
			}
			var b strings.Builder
			rep.Render(&b)
			if !strings.Contains(b.String(), "PARTIAL REPORT") {
				t.Fatalf("render of interrupted report lacks the partial banner:\n%s", b.String())
			}
		})
	}
}

// A parallel run canceled mid-flight keeps RunContext's parallel
// contract: every partition stops at its next spec boundary, the report
// is Interrupted with no spec errors, SpecsRun counts exactly the specs
// that ran (each with a noted outcome, the canceling spec among them),
// and no spec starts after the cancellation fires.
//
// To make "starts after" observable without a race, the cancel is fired
// only once every other partition is parked inside the probe of its
// first spec — past that spec's boundary check — and those partitions
// are released only after the cancel. From then on any probe call is a
// spec that began after the cancellation, and the expected count is
// exact: the canceling partition's specs up to and including the
// canceling one, plus the one in-flight spec of each other partition.
func TestRunContextCancelParallelContract(t *testing.T) {
	const nSpecs, cancelAt = 16, 9
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("P=%d", workers), func(t *testing.T) {
			st := config.NewStore()
			var src strings.Builder
			for i := 0; i < nSpecs; i++ {
				kv(st, fmt.Sprintf("app.k%d", i), strconv.Itoa(i))
				fmt.Fprintf(&src, "$app.k%d -> specprobe & int & [0, %d]\n", i, 100+i)
			}
			prog := compileSrc(t, src.String())
			if len(prog.Specs) != nSpecs {
				t.Fatalf("compiled %d specs, want %d", len(prog.Specs), nSpecs)
			}
			eng := New(st)
			eng.Opts.Parallel = workers
			parts := eng.partitionSpecs(plan.For(prog), allSpecs(nSpecs), workers)
			partOf := make(map[int]int, nSpecs)
			for k, part := range parts {
				for _, j := range part {
					partOf[j] = k
				}
			}
			want := len(parts) - 1 // one in-flight spec per other partition
			for _, j := range parts[partOf[cancelAt]] {
				if j <= cancelAt {
					want++
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var (
				mu       sync.Mutex
				fired    bool
				started  = map[int]bool{}
				late     []int // specs whose probe ran after the cancel fired
				parkFail bool
			)
			// One buffered send per other partition, so a timed-out wait
			// cannot strand a partition on the send.
			arrived := make(chan struct{}, len(parts)-1)
			release := make(chan struct{})
			specProbe.Store(func(v value.V) {
				i, _ := strconv.Atoi(v.Raw)
				mu.Lock()
				started[i] = true
				afterCancel := fired
				if afterCancel {
					late = append(late, i)
				}
				mu.Unlock()
				switch {
				case i == cancelAt:
					timeout := time.After(10 * time.Second)
					for k := 0; k < len(parts)-1; k++ {
						select {
						case <-arrived:
						case <-timeout:
							parkFail = true
						}
					}
					mu.Lock()
					cancel()
					fired = true
					mu.Unlock()
					close(release)
				case partOf[i] != partOf[cancelAt] && !afterCancel:
					arrived <- struct{}{}
					<-release
				}
			})
			defer specProbe.Store(func(value.V) {})

			rep := eng.RunContext(ctx, prog)
			if parkFail {
				t.Fatalf("other partitions never reached their first spec")
			}
			if !rep.Interrupted {
				t.Fatalf("report not marked Interrupted")
			}
			if len(rep.SpecErrors) != 0 {
				t.Fatalf("cancellation produced spec errors: %v", rep.SpecErrors)
			}
			if len(late) != 0 {
				t.Fatalf("specs %v started after the cancellation fired", late)
			}
			noted := 0
			for i := 0; i < nSpecs; i++ {
				_, ok := rep.Outcome(i)
				if ok {
					noted++
				}
				if ok != started[i] {
					t.Errorf("spec %d: noted outcome = %v, started = %v", i, ok, started[i])
				}
			}
			if _, ok := rep.Outcome(cancelAt); !ok {
				t.Errorf("canceling spec %d has no noted outcome", cancelAt)
			}
			if rep.SpecsRun != noted || rep.SpecsRun != want {
				t.Fatalf("SpecsRun = %d, noted outcomes = %d, want %d (partitions %v)", rep.SpecsRun, noted, want, parts)
			}
		})
	}
}

func TestRunContextPreCanceledRunsNothing(t *testing.T) {
	st, prog := cancelFixture(t, 5, -1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := New(st).RunContext(ctx, prog)
	if !rep.Interrupted || rep.SpecsRun != 0 || len(rep.Violations) != 0 {
		t.Fatalf("pre-canceled run: %+v", rep)
	}
}

func TestRunContextDeadline(t *testing.T) {
	st, prog := cancelFixture(t, 5, -1)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rep := New(st).RunContext(ctx, prog)
	if !rep.Interrupted {
		t.Fatalf("expired deadline did not interrupt the run")
	}
}

// Cancellation of a parallel run drains every worker before returning
// and leaks no goroutines.
func TestRunContextCancelParallelNoGoroutineLeak(t *testing.T) {
	st, prog := cancelFixture(t, 40, 3)
	before := runtime.NumGoroutine()
	for _, workers := range []int{2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		ctxHook.Store(func() { cancel() })
		eng := New(st)
		eng.Opts.Parallel = workers
		rep := eng.RunContext(ctx, prog)
		if !rep.Interrupted {
			t.Fatalf("P=%d: parallel canceled run not marked Interrupted", workers)
		}
		cancel()
	}
	ctxHook.Store(func() {})
	// Workers are joined before RunContext returns; give the runtime's
	// goroutine accounting a moment to settle, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked across canceled parallel runs: before=%d after=%d", before, after)
	}
}

// A panicking plug-in predicate becomes a spec-level error; the spec's
// partial violations roll back and sibling specs are untouched — on the
// plan executor, sequential and parallel, and on the interpreter oracle,
// which must all stay report-identical.
func TestPanickingPredicateIsolated(t *testing.T) {
	st := config.NewStore()
	kv(st, "app.a", "1")
	kv(st, "app.b", "boom")
	kv(st, "app.c", "notanint")
	// Distinct ranges keep the three specs from merging (Figure 4(b)).
	src := "$app.a -> int & [0, 9]\n$app.b -> panicboom\n$app.c -> int & [0, 8]"
	prog := compileSrc(t, src)

	oracle := interp.Run(context.Background(), st, simenv.NewSim(), prog, interp.Options{})
	reports := map[string]*report.Report{"interp": oracle}
	for _, workers := range []int{1, 3} {
		eng := New(st)
		eng.Opts.Parallel = workers
		reports[fmt.Sprintf("plan P=%d", workers)] = eng.Run(prog)
	}
	for name, rep := range reports {
		if len(rep.SpecErrors) != 1 || !strings.Contains(rep.SpecErrors[0], "panic: predicate exploded on boom") {
			t.Fatalf("%s: SpecErrors = %v", name, rep.SpecErrors)
		}
		if len(rep.Violations) != 1 || rep.Violations[0].Key != "app.c" {
			t.Fatalf("%s: sibling verdicts disturbed: %v", name, rep.Violations)
		}
		if rep.SpecsRun != 3 {
			t.Fatalf("%s: SpecsRun = %d, want 3", name, rep.SpecsRun)
		}
		if o, ok := rep.Outcome(1); !ok || !o.Errored {
			t.Fatalf("%s: outcome for panicked spec = %+v ok=%v", name, o, ok)
		}
	}
	want := normalizedJSON(t, oracle)
	for name, rep := range reports {
		if got := normalizedJSON(t, rep); got != want {
			t.Fatalf("%s diverges from the interpreter oracle on panic containment:\n%s\nvs\n%s", name, got, want)
		}
	}
}

// A panic in one partition of a parallel run does not disturb the other
// partitions, and the merged report matches the sequential one.
func TestPanickingPredicateParallel(t *testing.T) {
	st := config.NewStore()
	var src strings.Builder
	for i := 0; i < 12; i++ {
		val := "1"
		pred := fmt.Sprintf("int & [0, %d]", 50+i)
		if i == 5 {
			val, pred = "boom", "panicboom"
		}
		kv(st, fmt.Sprintf("app.k%d", i), val)
		fmt.Fprintf(&src, "$app.k%d -> %s\n", i, pred)
	}
	prog := compileSrc(t, src.String())

	seq := New(st).Run(prog)
	par := New(st)
	par.Opts.Parallel = 4
	prep := par.Run(prog)
	if a, b := normalizedJSON(t, seq), normalizedJSON(t, prep); a != b {
		t.Fatalf("parallel panic containment diverges from sequential:\n%s\nvs\n%s", a, b)
	}
	if len(prep.SpecErrors) != 1 {
		t.Fatalf("SpecErrors = %v", prep.SpecErrors)
	}
}

// An errored verdict is never spliced: a spec that errored transiently
// (a panicking plug-in with no configuration delta) re-runs on the next
// incremental round and converges back to a clean report.
func TestIncrementalNeverReusesErroredVerdict(t *testing.T) {
	st := config.NewStore()
	kv(st, "app.a", "1")
	kv(st, "app.b", "2")
	hook := faultinject.PanicOnNth(1, "transient plug-in failure")
	ctxHook.Store(func() { hook() })
	defer ctxHook.Store(func() {})

	prog := compileSrc(t, "$app.a -> int\n$app.b -> ctxhook")
	eng := New(st)
	rep1 := eng.Run(prog)
	if len(rep1.SpecErrors) != 1 || !strings.Contains(rep1.SpecErrors[0], "transient plug-in failure") {
		t.Fatalf("round 1 did not capture the transient panic: %v", rep1.SpecErrors)
	}
	snap1 := eng.PinnedSnapshot()

	// Round 2: nothing changed, but the errored spec must re-run (the
	// hook no longer panics) while the clean spec's verdict is reused.
	rep2 := eng.RunIncremental(prog, snap1, rep1)
	if len(rep2.SpecErrors) != 0 {
		t.Fatalf("round 2 still errored: %v", rep2.SpecErrors)
	}
	if rep2.SpecsReused != 1 {
		t.Fatalf("round 2 SpecsReused = %d, want 1 (the clean spec)", rep2.SpecsReused)
	}
	full := New(st).Run(prog)
	if a, b := normalizedJSON(t, rep2), normalizedJSON(t, full); a != b {
		t.Fatalf("recovered incremental report diverges from full run:\n%s\nvs\n%s", a, b)
	}
}

// Cancellation during an incremental round yields a partial Interrupted
// report and never poisons the retained state: splicing from an
// interrupted report is refused.
func TestIncrementalInterruptedNotSpliced(t *testing.T) {
	st := config.NewStore()
	var src strings.Builder
	for i := 0; i < 6; i++ {
		kv(st, fmt.Sprintf("app.k%d", i), "1")
		fmt.Fprintf(&src, "$app.k%d -> int & [0, %d]\n", i, 100+i)
	}
	prog := compileSrc(t, src.String())
	eng := New(st)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	partial := eng.RunContext(ctx, prog)
	if !partial.Interrupted {
		t.Fatalf("canceled full run not Interrupted")
	}
	// Splicing from the interrupted report must fall back to a full run.
	rep := eng.RunIncremental(prog, eng.PinnedSnapshot(), partial)
	if rep.Interrupted || rep.SpecsRun != 6 || rep.SpecsReused != 0 {
		t.Fatalf("incremental from interrupted state: %+v", rep)
	}
}
