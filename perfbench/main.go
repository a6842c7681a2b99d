// Command perfbench is ConfValley's benchmark: three seeded workloads
// that each put most of their time in a different layer, measured end
// to end (--trace 0) or layer by layer (--trace 1). Build and run it
// through run.sh; BENCHMARK.json at the repository root describes the
// workloads and metrics, and README.md here explains them.
//
//	perfbench --workload cold-xml --seed 1 --seconds 25 --trace 0
//
// It prints one JSON line with the host stamp, then, as its last line,
// the result: {"correct", "attempted", "failed", "metrics"}. A failed
// correctness gate prints no result and exits 1.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 25, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}

	// Never oversubscribe: one P per hardware thread at most, and no
	// more clients than that either.
	cpus := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > cpus {
		runtime.GOMAXPROCS(cpus)
	}
	b := &bench{seed: *seed, seconds: time.Duration(*seconds) * time.Second, clients: min(2, cpus)}
	if *trace == 1 {
		b.rec = NewRecorder()
	}
	stamp, _ := json.Marshal(map[string]any{"host": map[string]any{
		"host_cpus": cpus, "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"cpu_model": cpuModel(), "seed": *seed, "workload": *workload, "trace": *trace,
		"seconds": *seconds, "clients": b.clients,
	}})
	fmt.Println(string(stamp))

	const buildDir = ".bench_build"
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	b.tmp = tmp

	out, err := wl(context.Background(), b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.rec != nil {
		path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := b.rec.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	if out.info != nil {
		info, _ := json.Marshal(map[string]any{"info": out.info})
		fmt.Println(string(info))
	}
	res, err := json.Marshal(map[string]any{
		"correct":   out.wrong == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   out.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(res))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuModel is the host's CPU model name, "" where /proc/cpuinfo is
// unavailable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
