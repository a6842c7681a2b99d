package main

// Seeded input generation. Every byte the program receives is made here
// from the --seed value and nothing else: the same seed gives the same
// payloads and the same request sequence. Generation (azuregen corpus
// building and rendering) is the test harness, not the program, so it
// is never part of a measured time.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"confvalley/internal/azuregen"
	"confvalley/internal/config"
	"confvalley/internal/report"
	"confvalley/internal/serve"
)

// sizes fixes the corpus scales. Tests shrink them; the benchmark uses
// paperSizes.
type sizes struct {
	A float64 // Type A scale; 1.0 is the paper's 1,391 classes, ≈67k instances
	B float64 // Type B scale; 1.0 is ≈2.3M instances
}

// corpusSeed fixes the generated corpora, so every run of a workload
// validates configuration of the same size and shape; the run seed
// picks the injected errors, drift, churn and request order.
const corpusSeed = 1

// paperSizes: Type A at paper scale. Type B at 0.2 (≈460k instances,
// a 25 MB rendering) keeps the held heap near 0.5 GiB and its payload
// under the service's 32 MiB per-request quota, so the same bytes can
// be gated through the service.
var paperSizes = sizes{A: 1.0, B: 0.2}

const (
	coldPayloadCount = 3  // distinct cold-xml payloads in the rotation
	mixVariantCount  = 6  // distinct low-churn service-mix payloads
	mixEpoch         = 20 // service-mix requests per write epoch
	mixChurnPerEpoch = 4  // churn requests per epoch; <= mixVariantCount
)

// payload is one request's configuration bytes plus what the generator
// knows about them.
type payload struct {
	Name, Format string
	Data         []byte
	// Injected are the corruptions the generator made; the TrueError
	// ones must all be reported.
	Injected []azuregen.Injection
	// Twins maps an injected duplicate's key to the keys of the
	// instances it duplicates: the engine may report either side.
	Twins map[string][]string
	// Req is the request as a client sends it and Body its exact wire
	// bytes, both built once so the load loop allocates neither.
	Req  serve.ValidateRequest
	Body []byte
}

func newPayload(name, format string, data []byte, inj []azuregen.Injection, twins map[string][]string) payload {
	p := payload{Name: name, Format: format, Data: data, Injected: inj, Twins: twins}
	p.Req = serve.ValidateRequest{Payloads: []serve.PayloadRef{{Name: name, Format: format, Data: string(data)}}}
	b, err := json.Marshal(p.Req)
	if err != nil {
		panic(err) // a request of plain strings always encodes
	}
	p.Body = b
	return p
}

// subSeeds derives independent generator seeds from the run seed.
func subSeeds(seed int64, n int) []int64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63()
	}
	return out
}

// coldInputs is cold-xml's input: the clean Type A rendering that
// inference learns from, the distinct payloads (each the corpus with
// six true errors and two benign drifts injected) and the order the
// load loop cycles through them.
func coldInputs(seed int64, sz sizes) (train []byte, ps []payload, order []int) {
	seeds := subSeeds(seed, coldPayloadCount+1)
	train = azuregen.RenderXML(azuregen.GenerateA(sz.A, corpusSeed).Store)
	for i := 0; i < coldPayloadCount; i++ {
		c := azuregen.GenerateA(sz.A, corpusSeed)
		inj := azuregen.InjectInferredErrors(c, 6, 2, seeds[i+1])
		ps = append(ps, newPayload("corpus.xml", "xml", azuregen.RenderXML(c.Store), inj, duplicateTwins(c.Store, inj)))
	}
	order = rand.New(rand.NewSource(seeds[0])).Perm(coldPayloadCount)
	return train, ps, order
}

// heldInputs is validate-held's input: the clean Type B rendering that
// inference learns from and the held rendering with ~0.1% of its typed
// values drifted to values of the wrong type, every one a true error.
func heldInputs(seed int64, sz sizes) (train []byte, held payload) {
	c := azuregen.GenerateB(sz.B, corpusSeed)
	train = azuregen.RenderKV(c.Store)
	r := rand.New(rand.NewSource(seed))
	var inj []azuregen.Injection
	for _, in := range c.Store.Instances() {
		if r.Intn(1000) != 0 {
			continue
		}
		var nv string
		switch {
		case in.Value == "" || strings.HasPrefix(in.Value, "node profile"):
			continue // free text: no inferred type to break
		case in.Value == "true" || in.Value == "false":
			nv = "maybe"
		default:
			nv = "drift?" + in.Value
		}
		inj = append(inj, azuregen.Injection{Key: in.Key.String(), OldValue: in.Value, NewValue: nv,
			Kind: "drift:type", TrueError: true})
		in.Value = nv
	}
	c.Store.InvalidateCache()
	return train, newPayload("held.kv", "kv", azuregen.RenderKV(c.Store), inj, nil)
}

// mixInputs is service-mix's input: the clean Type A rendering, which
// is both inference's training data and the payload most requests
// repeat byte for byte, and low-churn variants that each swap values
// between instances of the same class (keeping every class's value
// distribution, so the swaps alone break no inferred spec); every other
// variant also carries four injected true errors. The churned share
// grows from 0.1% for the first variant to 1% for the last, the same
// for every seed; the seed picks which instances churn and which errors
// are injected.
func mixInputs(seed int64, sz sizes) (base payload, variants []payload) {
	seeds := subSeeds(seed, mixVariantCount+1)
	train := azuregen.RenderXML(azuregen.GenerateA(sz.A, corpusSeed).Store)
	base = newPayload("corpus.xml", "xml", train, nil, nil)
	for i := 0; i < mixVariantCount; i++ {
		c := azuregen.GenerateA(sz.A, corpusSeed)
		r := rand.New(rand.NewSource(seeds[i]))
		churn(c.Store, 0.001*math.Pow(10, float64(i)/(mixVariantCount-1)), r)
		var inj []azuregen.Injection
		if i%2 == 0 {
			inj = azuregen.InjectInferredErrors(c, 4, 0, r.Int63())
		}
		variants = append(variants, newPayload("corpus.xml", "xml", azuregen.RenderXML(c.Store), inj, duplicateTwins(c.Store, inj)))
	}
	return base, variants
}

// duplicateTwins finds, for each injected duplicate, the other
// instances of its class that now hold the same value.
func duplicateTwins(st *config.Store, inj []azuregen.Injection) map[string][]string {
	dups := map[string]azuregen.Injection{}
	for _, i := range inj {
		if i.Kind == "inferred:duplicate" {
			dups[i.Key] = i
		}
	}
	if len(dups) == 0 {
		return nil
	}
	classOf := map[string]string{}
	for _, in := range st.Instances() {
		if _, ok := dups[in.Key.String()]; ok {
			classOf[in.Key.String()] = in.Key.ClassPath()
		}
	}
	twins := map[string][]string{}
	for key, i := range dups {
		for _, in := range st.ClassInstances(classOf[key]) {
			if k := in.Key.String(); k != key && in.Value == i.NewValue {
				twins[key] = append(twins[key], k)
			}
		}
	}
	return twins
}

// churn swaps the values of ~frac of the store's instances with those
// of random instances of the same class.
func churn(st *config.Store, frac float64, r *rand.Rand) {
	ins := st.Instances()
	n := max(1, int(frac*float64(len(ins))))
	lo := r.Intn(len(ins))
	for d := 0; d < n; d++ {
		in := ins[(lo+d)%len(ins)]
		peers := st.ClassInstances(in.Key.ClassPath())
		p := peers[r.Intn(len(peers))]
		in.Value, p.Value = p.Value, in.Value
	}
	st.InvalidateCache()
}

// Request classes, as the generator chooses them.
const (
	classCold        = "cold"        // validated from scratch
	classHit         = "hit"         // byte-identical repeat of a validated request
	classIncremental = "incremental" // low-churn variant of the last validated payload
	classWrite       = "write"       // spec re-registration
)

// mixReq is one service-mix request: a write (Payload -1) re-registering
// spec version Version, or a validate of payload Payload (0 is the base,
// i > 0 is variant i-1).
type mixReq struct {
	Class   string
	Payload int
	Version int
}

// mixStream is service-mix's request sequence of at least n requests,
// in epochs of mixEpoch: a write (except in the first epoch, whose
// registration is part of set-up), then a validate of the base, which
// runs cold because the write purged every cache, then the base
// repeated byte for byte, with mixChurnPerEpoch low-churn variants
// evenly spaced among the repeats, taken in rotation. Variants never
// repeat within an epoch, so a churn request cannot be a cache hit. The
// sequence is the same for every seed, so how often a cheap hit
// overlaps an expensive request does not change from seed to seed; the
// seed changes the variants' contents.
func mixStream(n int) []mixReq {
	var out []mixReq
	next := 0
	for e := 0; len(out) < n; e++ {
		if e > 0 {
			out = append(out, mixReq{Class: classWrite, Payload: -1, Version: e % 2})
		}
		out = append(out, mixReq{Class: classCold, Payload: 0})
		reads := make([]mixReq, mixEpoch-2)
		for i := range reads {
			reads[i] = mixReq{Class: classHit, Payload: 0}
		}
		for i := 0; i < mixChurnPerEpoch; i++ {
			slot := (2*i + 1) * len(reads) / (2 * mixChurnPerEpoch)
			reads[slot] = mixReq{Class: classIncremental, Payload: next%mixVariantCount + 1}
			next++
		}
		out = append(out, reads...)
	}
	return out
}

// specVersion is the spec source registered as version v: version 1 is
// version 0 with an edited comment, which changes the registration, and
// so purges the caches, but not one verdict.
func specVersion(spec string, v int) string {
	if v == 0 {
		return spec
	}
	return spec + fmt.Sprintf("\n// revision %d\n", v)
}

// storeKey maps a violation key in the XML driver's flattened form,
// Scope::<path>[n].<Leaf>, back to the generator's <path>.<Leaf>, so
// violations can be matched against generator-recorded injections.
func storeKey(k string) string {
	rest, ok := strings.CutPrefix(k, "Scope::")
	if !ok {
		return k
	}
	dot := strings.LastIndexByte(rest, '.')
	if dot < 0 {
		return k
	}
	scope, leaf := rest[:dot], rest[dot+1:]
	if b := strings.LastIndexByte(scope, '['); b >= 0 && strings.HasSuffix(scope, "]") {
		scope = scope[:b]
	}
	return scope + "." + leaf
}

// missedTrueErrors returns the generator's true-error injections that
// no reported violation accounts for, on either side of a duplicate.
func missedTrueErrors(p payload, w *report.Wire) []azuregen.Injection {
	keys := make([]string, len(w.Violations))
	for i, v := range w.Violations {
		keys[i] = storeKey(v.Key)
	}
	candidates := append([]azuregen.Injection(nil), p.Injected...)
	for _, twins := range p.Twins {
		for _, k := range twins {
			candidates = append(candidates, azuregen.Injection{Key: k})
		}
	}
	matched, _ := azuregen.MatchReport(candidates, keys)
	found := make(map[string]bool, len(matched))
	for _, m := range matched {
		found[m.Key] = true
	}
	var missed []azuregen.Injection
	for _, i := range p.Injected {
		if !i.TrueError || found[i.Key] {
			continue
		}
		twinFound := false
		for _, k := range p.Twins[i.Key] {
			twinFound = twinFound || found[k]
		}
		if !twinFound {
			missed = append(missed, i)
		}
	}
	return missed
}
