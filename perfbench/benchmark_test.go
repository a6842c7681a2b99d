package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// BENCHMARK.json at the repository root must name workloads this
// program runs and exactly the metrics it prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs (%v)", w.Name, workloadNames())
		}
	}

	e2e := endToEnd(load{samples: []sample{{}}, wall: time.Second}, 0).metrics
	if len(e2e) != len(bj.EndToEnd) {
		t.Errorf("program prints %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(bj.EndToEnd))
	}
	for _, m := range bj.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): program prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(perLayer) != len(bj.PerLayer) {
		t.Fatalf("program prints %d per-layer metrics, BENCHMARK.json lists %d", len(perLayer), len(bj.PerLayer))
	}
	listed := map[string]bool{}
	for _, m := range perLayer {
		listed[m.name] = true
	}
	for span, name := range spanMetrics {
		if !listed[name] {
			t.Errorf("span %s reports %s, which is not a per-layer metric", span, name)
		}
	}
	for i, m := range bj.PerLayer {
		if perLayer[i].name != m.Name || perLayer[i].unit != m.Unit {
			t.Errorf("per-layer %d: program %v, BENCHMARK.json %s (%s)", i, perLayer[i], m.Name, m.Unit)
		}
	}
}
