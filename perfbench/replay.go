package main

// The traced replay: each request's exact bytes go once through the
// public entry points and once through the same public calls in the
// order the server makes them — decode → hash → parse → build → seal →
// run → wire → encode — so every layer gets a span of its own while the
// whole still describes the program the untraced run measured.

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"confvalley"
	"confvalley/internal/config"
	"confvalley/internal/driver"
	"confvalley/internal/engine"
	"confvalley/internal/report"
	"confvalley/internal/runner"
	"confvalley/internal/serve"
	"confvalley/internal/simenv"
)

// replayer holds a workload's server pair and the decomposed pipeline's
// own incremental lineage.
type replayer struct {
	rec *Recorder
	// http is the public path over loopback; mirror is an identically
	// configured in-process server fed the same sequence, so its cache
	// state, and so the path a request takes, matches http's.
	http, mirror *service
	// cached and incremental say whether the workload's server config
	// has the result cache and cross-request incremental runs on, which
	// decides which stages are on the server's path.
	cached, incremental bool

	sess *confvalley.Session
	prog *confvalley.Program
	// prev is the decomposed lineage's last run, the equivalent of the
	// server's per-spec incremental state; ref is what the diff and
	// incremental-reuse probe compares against.
	prev     *confvalley.RunState
	refState *confvalley.RunState
	refSnap  *config.Snapshot
	// fixedRef keeps the training store as the reference; otherwise
	// each replayed request becomes the next one's reference.
	fixedRef bool

	vals map[string][]float64
}

// newReplayer starts the server pair with cfg, registers spec on both,
// and seeds the probe reference with a run over the training store.
func newReplayer(ctx context.Context, b *bench, cfg serve.Config, durable bool, spec, trainFormat string, train []byte) (*replayer, error) {
	r := &replayer{
		rec:         b.rec,
		cached:      cfg.ResultCacheSize >= 0,
		incremental: !cfg.NoIncremental,
		sess:        confvalley.NewSession(),
		vals:        map[string][]float64{},
	}
	var err error
	if r.http, err = startService(cfg, durable, b.tmp); err != nil {
		return nil, err
	}
	if r.mirror, err = startService(cfg, durable, b.tmp); err != nil {
		r.close()
		return nil, err
	}
	for _, s := range []*service{r.http, r.mirror} {
		if _, err := s.c.Register(ctx, specName, spec); err != nil {
			r.close()
			return nil, fmt.Errorf("replay register: %w", err)
		}
	}
	if r.prog, err = r.sess.Compile(spec); err != nil {
		r.close()
		return nil, err
	}
	st := config.NewStore()
	if _, err := driver.LoadInto(st, trainFormat, train, "train."+trainFormat, ""); err != nil {
		r.close()
		return nil, err
	}
	if _, _, r.refState, err = r.sess.RunProgramIncremental(ctx, r.prog, st, nil); err != nil {
		r.close()
		return nil, err
	}
	r.refSnap = st.Snapshot()
	return r, nil
}

func (r *replayer) close() {
	for _, s := range []*service{r.http, r.mirror} {
		if s != nil {
			s.close()
		}
	}
}

func (r *replayer) add(name string, v float64) { r.vals[name] = append(r.vals[name], v) }

// one replays one request. It fails when the two public paths disagree
// or the decomposed pipeline's report differs from the server's.
func (r *replayer) one(ctx context.Context, req int, class string, p payload) error {
	rec := r.rec
	var resp, mresp *serve.ValidateResponse
	var err, merr error
	// Each path starts from a collected heap, so none pays for garbage
	// the one before it left.
	runtime.GC()
	rt := rec.Time("serve.roundtrip", class, req, 0, func() { resp, err = r.http.c.Validate(ctx, specName, p.Req) })
	if err != nil {
		return fmt.Errorf("replay %d: %w", req, err)
	}
	ran0 := r.mirror.srv.Stats().Validations
	runtime.GC()
	vb := rec.Time("serve.validate_body", class, req, 0, func() {
		mresp, merr = r.mirror.srv.ValidateBody(ctx, tenant, specName, p.Body)
	})
	if merr != nil {
		return fmt.Errorf("replay %d: ValidateBody: %w", req, merr)
	}
	if canon(resp.Report) != canon(mresp.Report) {
		return fmt.Errorf("replay %d: HTTP and in-process answers differ", req)
	}
	r.add("serve.transport_ms", ms(rt-vb))
	if r.mirror.srv.Stats().Validations == ran0 {
		return nil // served from cache: no stage below ran on the server
	}

	runtime.GC()
	root := rec.Begin("decomposed", class, req, 0)
	var inPath time.Duration
	stage := func(name string, f func()) time.Duration {
		d := rec.Time(name, class, req, root, f)
		if onServerPath(name, r.cached) {
			inPath += d
		}
		return d
	}
	var vr serve.ValidateRequest
	stage("serve.decode", func() { err = json.Unmarshal(p.Body, &vr) })
	if err != nil || len(vr.Payloads) != 1 {
		return fmt.Errorf("replay %d: decode: %v", req, err)
	}
	pr := vr.Payloads[0]
	data := []byte(pr.Data)
	stage("ingest.hash", func() {
		runner.HashPayloads([]runner.Payload{{Name: pr.Name, Format: pr.Format, Scope: pr.Scope, Data: data}})
	})
	var ins []*config.Instance
	a0 := totalAlloc()
	d := stage("driver.parse", func() { ins, err = driver.ParseScoped(ctx, pr.Format, data, pr.Name, pr.Scope) })
	r.add("driver.parse_alloc_mib", mib(totalAlloc()-a0))
	r.add("driver.parse_mib_per_s", mib(uint64(len(data)))/d.Seconds())
	if err != nil {
		return fmt.Errorf("replay %d: parse: %w", req, err)
	}
	st := config.NewStore()
	stage("config.build", func() { st.AddAll(ins) })
	stage("config.seal", func() { st.Snapshot() })

	prev := r.prev
	if !r.incremental {
		prev = nil
	}
	ph, pm := confvalley.PlanCacheStats()
	a0 = totalAlloc()
	var rep *report.Report
	var next *confvalley.RunState
	stage("engine.run", func() { rep, _, next, err = r.sess.RunProgramIncremental(ctx, r.prog, st, prev) })
	r.add("engine.run_alloc_mib", mib(totalAlloc()-a0))
	if err != nil {
		return fmt.Errorf("replay %d: run: %w", req, err)
	}
	ph2, pm2 := confvalley.PlanCacheStats()
	r.add("plan.cache_hit_ratio", ratio(float64(ph2-ph), float64(ph2-ph+pm2-pm)))
	r.add("config.discovery_hit_ratio", ratio(float64(st.Stats.CacheHits()), float64(st.Stats.Queries())))
	var w *report.Wire
	stage("report.wire", func() { w = rep.Wire() })
	stage("report.encode", func() {
		_, err = json.Marshal(&serve.ValidateResponse{Tenant: tenant, Spec: specName, Report: w, Code: mresp.Code})
	})
	rec.End(root)
	if err != nil {
		return fmt.Errorf("replay %d: encode: %w", req, err)
	}
	if canon(w) != canon(mresp.Report) {
		return fmt.Errorf("replay %d: decomposed pipeline's report differs from ValidateBody's", req)
	}
	r.add("report.violations", float64(len(w.Violations)))
	r.add("serve.residual_ms", residualMS(vb, inPath))
	r.prev = next

	// Probes off the server's path: partition balance at one partition
	// per CPU, and the delta and splice an incremental run would get
	// against the reference.
	st.InvalidateCache()
	eng := &engine.Engine{Store: st, Env: simenv.NewSim()}
	r.add("engine.partition_skew", skew(eng.PartitionTimes(r.prog, runtime.NumCPU())))
	sn := st.Snapshot()
	rec.Time("config.diff", class, req, 0, func() { sn.Diff(r.refSnap) })
	reused := rep
	if !r.incremental {
		if reused, _, _, err = r.sess.RunProgramIncremental(ctx, r.prog, st, r.refState); err != nil {
			return fmt.Errorf("replay %d: incremental probe: %w", req, err)
		}
	}
	r.add("engine.specs_reused_ratio", ratio(float64(reused.SpecsReused), float64(reused.SpecsRun)))
	if !r.fixedRef {
		r.refState, r.refSnap = next, sn
	}
	return nil
}

// onServerPath reports whether ValidateBody itself runs a decomposed
// stage: all of them but the response encode, which the HTTP handler
// does after ValidateBody returns, and the payload hash, which only the
// result cache needs.
func onServerPath(stage string, cached bool) bool {
	switch stage {
	case "report.encode":
		return false
	case "ingest.hash":
		return cached
	}
	return true
}

// residualMS is the part of ValidateBody that none of the decomposed
// stages on the server's path accounts for.
func residualMS(validateBody, stages time.Duration) float64 { return ms(validateBody - stages) }

// skew is the slowest partition's time over the mean partition time.
func skew(parts []time.Duration) float64 {
	if len(parts) == 0 {
		return 0
	}
	var sum, top time.Duration
	for _, p := range parts {
		sum += p
		top = max(top, p)
	}
	return ratio(float64(top)*float64(len(parts)), float64(sum))
}
