package main

import (
	"context"
	"fmt"
	"time"

	"confvalley"
	"confvalley/internal/config"
	"confvalley/internal/driver"
	"confvalley/internal/serve"
)

// workloads maps each --workload name to its run.
var workloads = map[string]func(context.Context, *bench) (outcome, error){
	"cold-xml":      runColdXML,
	"validate-held": runHeld,
	"service-mix":   runMix,
}

// mixRate is service-mix's fixed open-loop arrival rate in requests per
// second, about half the 11.2 req/s the mix sustains on a 2-vCPU host.
const mixRate = 5.0

// serviceEnv is a set-up service with its registered spec.
type serviceEnv struct {
	svc  *service
	spec string
}

// setupService is the set-up of the two service workloads: infer the
// spec from the training bytes, start the server (recovering its
// journal when durable) and register the spec over HTTP.
func setupService(ctx context.Context, b *bench, cfg serve.Config, durable bool, train []byte) (serviceEnv, float64, error) {
	return timeSetup(b.rec, func(parent int) (serviceEnv, func(), error) {
		spec, err := inferSpec(b.rec, parent, "xml", train)
		if err != nil {
			return serviceEnv{}, nil, err
		}
		var svc *service
		b.rec.Time("serve.start", "", 0, parent, func() { svc, err = startService(cfg, durable, b.tmp) })
		if err != nil {
			return serviceEnv{}, nil, err
		}
		b.rec.Time("serve.register_http", "", 0, parent, func() { _, err = svc.c.Register(ctx, specName, spec) })
		if err != nil {
			svc.close()
			return serviceEnv{}, nil, fmt.Errorf("register: %w", err)
		}
		return serviceEnv{svc, spec}, svc.close, nil
	})
}

// runColdXML: paper-scale Type A payloads, each distinct, through a
// server with every cache off, from one closed-loop client. One client,
// not one per CPU: two concurrent 4 MB requests on two CPUs couple
// through the collector, and their latencies spread by 15% between runs
// against 6–8% for one.
func runColdXML(ctx context.Context, b *bench) (outcome, error) {
	train, ps, order := coldInputs(b.seed, paperSizes)
	cfg := serve.Config{SnapshotCacheSize: -1, ResultCacheSize: -1, NoIncremental: true}
	e, setupS, err := setupService(ctx, b, cfg, false, train)
	if err != nil {
		return outcome{}, err
	}
	defer e.svc.close()

	canons, counts, err := gateReferences(ctx, e.spec, ps)
	if err != nil {
		return outcome{}, err
	}
	if err := gateThrough(ctx, e.svc.c, ps, canons, "cold-xml"); err != nil {
		return outcome{}, err
	}

	do := func(req int) (string, error) {
		i := order[req%len(order)]
		resp, err := e.svc.c.Validate(ctx, specName, ps[i].Req)
		return classCold, checkResponse(resp, err, counts[i])
	}
	drive := func(deadline time.Time) []sample { return closedLoop(1, deadline, do) }
	if b.rec == nil {
		return endToEnd(measure(b, e.svc.srv, func() []sample { return drive(time.Now().Add(b.seconds)) }), setupS), nil
	}
	return runTraced(ctx, b, tracedWorkload{
		spec: e.spec, srv: e.svc.srv, drive: drive,
		cfg: cfg, trainFormat: "xml", train: train,
		replayRound: func(ctx context.Context, r *replayer, round int) error {
			i := order[round%len(order)]
			return r.one(ctx, round, classCold, ps[i])
		},
	})
}

// heldEnv is validate-held's set-up product.
type heldEnv struct {
	spec string
	sess *confvalley.Session
	prog *confvalley.Program
	st   *config.Store
}

// runHeld: the library path over a parsed and sealed Type B store with
// ~0.1% drift, one caller validating it again and again with discovery
// starting cold each time.
func runHeld(ctx context.Context, b *bench) (outcome, error) {
	train, held := heldInputs(b.seed, paperSizes)
	e, setupS, err := timeSetup(b.rec, func(parent int) (heldEnv, func(), error) {
		spec, err := inferSpec(b.rec, parent, "kv", train)
		if err != nil {
			return heldEnv{}, nil, err
		}
		e := heldEnv{spec: spec, sess: confvalley.NewSession(), st: config.NewStore()}
		b.rec.Time("compiler.compile_held", "", 0, parent, func() { e.prog, err = e.sess.Compile(spec) })
		if err != nil {
			return heldEnv{}, nil, err
		}
		b.rec.Time("driver.parse_held", "", 0, parent, func() {
			_, err = driver.LoadInto(e.st, held.Format, held.Data, held.Name, "")
		})
		if err != nil {
			return heldEnv{}, nil, err
		}
		b.rec.Time("config.seal_held", "", 0, parent, func() { e.st.Snapshot() })
		return e, func() {}, nil
	})
	if err != nil {
		return outcome{}, err
	}

	// Gate: the held store's report, a cold CLI-path run over the same
	// bytes, and the service's answer to them must all agree.
	canons, counts, err := gateReferences(ctx, e.spec, []payload{held})
	if err != nil {
		return outcome{}, err
	}
	rep, _, err := e.sess.RunProgram(ctx, e.prog, e.st)
	if err != nil {
		return outcome{}, err
	}
	if canon(rep.Wire()) != canons[0] {
		return outcome{}, fmt.Errorf("gate (validate-held): held-store report differs from a cold run")
	}
	svc, err := startService(serve.Config{}, false, b.tmp)
	if err != nil {
		return outcome{}, err
	}
	_, err = svc.c.Register(ctx, specName, e.spec)
	if err == nil {
		err = gateThrough(ctx, svc.c, []payload{held}, canons, "validate-held")
	}
	svc.close()
	if err != nil {
		return outcome{}, err
	}

	do := func(int) (string, error) {
		e.st.InvalidateCache()
		rep, _, err := e.sess.RunProgram(ctx, e.prog, e.st)
		if err != nil {
			return classCold, err
		}
		return classCold, checkVerdict(len(rep.Violations), rep.Interrupted, counts[0])
	}
	drive := func(deadline time.Time) []sample { return closedLoop(1, deadline, do) }
	if b.rec == nil {
		return endToEnd(measure(b, nil, func() []sample { return drive(time.Now().Add(b.seconds)) }), setupS), nil
	}
	return runTraced(ctx, b, tracedWorkload{
		spec: e.spec, drive: drive,
		cfg:      serve.Config{SnapshotCacheSize: -1, ResultCacheSize: -1, NoIncremental: true},
		fixedRef: true, trainFormat: "kv", train: train,
		replayRound: func(ctx context.Context, r *replayer, round int) error {
			return r.one(ctx, round, classCold, held)
		},
	})
}

// runMix: the service with its default caches and a journal, fed an
// open-loop stream of repeats, low-churn variants and re-registrations.
func runMix(ctx context.Context, b *bench) (outcome, error) {
	base, variants := mixInputs(b.seed, paperSizes)
	ps := append([]payload{base}, variants...)
	cfg := serve.Config{}
	e, setupS, err := setupService(ctx, b, cfg, true, base.Data)
	if err != nil {
		return outcome{}, err
	}
	defer e.svc.close()

	// Gate on a twin server, so the measured one starts with cold
	// caches: the base then every variant (cold, then incremental
	// splices), all of them again (cache hits), then after a
	// re-registration the base and one variant again (cold after write).
	canons, counts, err := gateReferences(ctx, e.spec, ps)
	if err != nil {
		return outcome{}, err
	}
	g, err := startService(cfg, true, b.tmp)
	if err != nil {
		return outcome{}, err
	}
	err = mixGate(ctx, g.c, e.spec, ps, canons)
	g.close()
	if err != nil {
		return outcome{}, err
	}

	interval := time.Duration(float64(time.Second) / mixRate)
	do := func(stream []mixReq) func(int) (string, error) {
		return func(req int) (string, error) {
			m := stream[req]
			if m.Class == classWrite {
				_, err := e.svc.c.Register(ctx, specName, specVersion(e.spec, m.Version))
				return m.Class, err
			}
			resp, err := e.svc.c.Validate(ctx, specName, ps[m.Payload].Req)
			return m.Class, checkResponse(resp, err, counts[m.Payload])
		}
	}
	drive := func(d time.Duration) []sample {
		n := max(1, int(d.Seconds()*mixRate))
		return openLoop(time.Now(), interval, n, b.clients, do(mixStream(n)))
	}
	if b.rec == nil {
		return endToEnd(measure(b, e.svc.srv, func() []sample { return drive(b.seconds) }), setupS), nil
	}
	return runTraced(ctx, b, tracedWorkload{
		spec: e.spec, srv: e.svc.srv,
		drive: func(deadline time.Time) []sample { return drive(time.Until(deadline)) },
		cfg:   cfg, durable: true, trainFormat: "xml", train: base.Data,
		// One round: the base (cold the first time, a hit after), a
		// variant spliced incrementally, and the base again (a hit).
		replayRound: func(ctx context.Context, r *replayer, round int) error {
			first := classHit
			if round == 0 {
				first = classCold
			}
			if err := r.one(ctx, 3*round, first, base); err != nil {
				return err
			}
			if err := r.one(ctx, 3*round+1, classIncremental, variants[round%len(variants)]); err != nil {
				return err
			}
			return r.one(ctx, 3*round+2, classHit, base)
		},
	})
}

// mixGate is the cache-identity gate of service-mix.
func mixGate(ctx context.Context, c *serve.Client, spec string, ps []payload, canons []string) error {
	if _, err := c.Register(ctx, specName, spec); err != nil {
		return fmt.Errorf("gate register: %w", err)
	}
	for _, what := range []string{"service-mix cold+incremental", "service-mix hits"} {
		if err := gateThrough(ctx, c, ps, canons, what); err != nil {
			return err
		}
	}
	if _, err := c.Register(ctx, specName, specVersion(spec, 1)); err != nil {
		return fmt.Errorf("gate re-register: %w", err)
	}
	return gateThrough(ctx, c, ps[:2], canons[:2], "service-mix after write")
}
