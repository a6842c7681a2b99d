# Developer entry points. `make tier1` is the gate every change must
# pass: vet plus the full test suite under the race detector (the plan
# executor shares cached plans across parallel partitions, so racing the
# suite is part of the contract, not an optional extra).

GO ?= go

.PHONY: all build lint tier1 test bench plan-bench stress store-bench incremental-bench fault-bench load-bench servecache-bench fuzz-smoke bench-smoke e2e crash-chaos

all: build

build:
	$(GO) build ./...

# Static-analysis gate over both languages the repo is written in: the
# Go tree (gofmt cleanliness + go vet) and the CPL tree (cvlint over
# the shipped specs corpus — the lintcorpus golden fixtures are
# deliberately broken and skipped by the directory walk). staticcheck
# would slot in after vet, but the offline build cannot vendor it;
# cvlint is the project-specific analyzer this gate is really about.
lint:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/cvlint ./specs

# tier1 includes the concurrency stress suite: `go test -race ./...`
# picks up the race-hunting tests in internal/config/race_test.go,
# internal/engine/race_test.go, and swap_test.go along with everything
# else. `make stress` runs just those, with more iterations.
tier1: lint
	$(GO) test -race ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -run '^$$' .

# Regenerate the numbers recorded in BENCH_plan.json.
plan-bench:
	$(GO) test -bench BenchmarkPlanExecution -benchtime=100x -run '^$$' .

# Focused run of the concurrency stress suite under the race detector.
# -count=3 re-interleaves the schedules; the cold-cache discovery test
# is the regression gate for the buildTrie race, the chaos suite drives
# multi-round watch sessions through injected ingestion faults, and the
# serve/runner tests race concurrent tenants over shared sessions.
stress:
	$(GO) test -race -count=3 -run 'TestConcurrent|TestParallelRun|TestSwapStore|TestSnapshotIsolation|TestChaos' ./internal/config/ ./internal/engine/ ./internal/runner/ ./internal/serve/ .

# Full service round trip over real processes and a loopback socket:
# build cvserve+cvcall+cvcheck, boot the server, drive it with cvcall
# register→validate→report, and assert exit codes plus report identity
# with the CLI path. Mirrors the CI "Service e2e" job.
e2e:
	$(GO) test -run 'TestE2E$$' -v ./cmd/cvserve/

# Durability gate: the journal/recovery crash-injection suites (torn
# tails, mid-commit crashes, randomized op streams across four crash
# modes) under the race detector, then a process-level kill -9 /
# restart e2e that holds three successive cvserve lives to byte
# identity on the same -state-dir. Mirrors the CI "Crash chaos" job.
crash-chaos:
	$(GO) test -race -count=1 ./internal/durable/
	$(GO) test -race -count=1 -run 'TestRecover|TestCrashMid|TestReadyz|TestConcurrentRegisterDrain' ./internal/serve/
	$(GO) test -count=1 -run 'TestE2ECrashRecovery|TestE2EInMemory' -v ./cmd/cvserve/

# Regenerate the numbers recorded in BENCH_store.json.
store-bench:
	$(GO) test -run xxx -bench BenchmarkShardedDiscovery -benchtime 1s ./internal/config/

# Regenerate the churn sweep recorded in BENCH_incremental.json.
incremental-bench:
	$(GO) run ./cmd/cvbench -run incremental -full

# Regenerate the happy-path overhead numbers recorded in BENCH_fault.json.
fault-bench:
	$(GO) run ./cmd/cvbench -run fault -full

# Regenerate the throughput numbers recorded in BENCH_load.json.
load-bench:
	$(GO) run ./cmd/cvbench -run load -full

# Regenerate the service-cache numbers recorded in
# BENCH_servecache.json (cold vs repeat vs low-churn request streams;
# the identity gate panics if any cached answer diverges from a cold
# CLI-path run).
servecache-bench:
	$(GO) run ./cmd/cvbench -run servecache -full

# Short coverage-guided run of each fuzzer on top of the checked-in
# seeds: the six format drivers, the validate endpoint's two wire forms
# and the wire-report decoder. Mirrors the CI "Fuzz smoke" job; a
# crasher fails the target.
fuzz-smoke:
	for f in FuzzINI FuzzKV FuzzCSV FuzzYAML FuzzJSON FuzzXML; do \
		$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 10s ./internal/driver/ || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzValidateHTTP$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWire$$' -fuzztime 10s ./internal/report/

# One iteration of every benchmark — compile/panic smoke, no timing
# claims — plus a quick-scale pass of the load harness (both drivers and
# the partition ablation run; the ablation's report-identity gate panics
# on any divergence). Mirrors the CI "Bench smoke" step.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/cvbench -run load
