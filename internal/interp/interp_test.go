package interp

import (
	"context"
	"strings"
	"testing"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/simenv"
)

func fixture(t *testing.T, src string) (*config.Store, *compiler.Program) {
	t.Helper()
	st := config.NewStore()
	for k, v := range map[string]string{"a": "1", "b": "x", "c": "y"} {
		st.Add(&config.Instance{Key: config.K("App", k), Value: v, Source: "test"})
	}
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return st, prog
}

// Distinct ranges keep the three specs from merging in the optimizer.
const threeSpecs = "$App.a -> int & [0, 9]\n$App.b -> int & [0, 8]\n$App.c -> int & [0, 7]"

func TestRunReportsEveryViolation(t *testing.T) {
	st, prog := fixture(t, threeSpecs)
	rep := Run(context.Background(), st, simenv.NewSim(), prog, Options{})
	if rep.SpecsRun != 3 || rep.SpecsFailed != 2 || len(rep.Violations) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Violations[0].Key != "App.b" || !strings.Contains(rep.Violations[0].Message, "not a valid int") {
		t.Fatalf("first violation = %+v", rep.Violations[0])
	}
}

func TestRunStopsOnFirstViolation(t *testing.T) {
	for name, stop := range map[string]func(*compiler.Program) Options{
		"option": func(*compiler.Program) Options { return Options{StopOnFirst: true} },
		"policy": func(p *compiler.Program) Options { p.Policies["on_violation"] = "stop"; return Options{} },
	} {
		st, prog := fixture(t, threeSpecs)
		rep := Run(context.Background(), st, simenv.NewSim(), prog, stop(prog))
		if !rep.Stopped || rep.SpecsRun != 2 || len(rep.Violations) != 1 {
			t.Fatalf("%s: report = %+v", name, rep)
		}
	}
}

func TestRunPreCanceledRunsNothing(t *testing.T) {
	st, prog := fixture(t, threeSpecs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := Run(ctx, st, simenv.NewSim(), prog, Options{})
	if !rep.Interrupted || rep.SpecsRun != 0 {
		t.Fatalf("report = %+v", rep)
	}
}
