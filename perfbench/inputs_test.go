package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"confvalley/internal/azuregen"
	"confvalley/internal/report"
)

// tiny keeps generation fast; determinism does not depend on scale.
var tiny = sizes{A: 0.05, B: 0.002}

// digest is a payload's content address.
func (p payload) digest() string {
	sum := sha256.Sum256(p.Data)
	return hex.EncodeToString(sum[:])
}

func digests(ps ...payload) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.digest())
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		t1, c1, o1 := coldInputs(seed, tiny)
		t2, c2, o2 := coldInputs(seed, tiny)
		if string(t1) != string(t2) || !reflect.DeepEqual(digests(c1...), digests(c2...)) || !reflect.DeepEqual(o1, o2) {
			t.Errorf("seed %d: cold-xml inputs differ between two generations", seed)
		}
		for i := range c1 {
			if string(c1[i].Body) != string(c2[i].Body) || !reflect.DeepEqual(c1[i].Injected, c2[i].Injected) {
				t.Errorf("seed %d: cold-xml payload %d request bytes or injections differ", seed, i)
			}
		}
		h1t, h1 := heldInputs(seed, tiny)
		h2t, h2 := heldInputs(seed, tiny)
		if string(h1t) != string(h2t) || h1.digest() != h2.digest() {
			t.Errorf("seed %d: validate-held inputs differ", seed)
		}
		b1, v1 := mixInputs(seed, tiny)
		b2, v2 := mixInputs(seed, tiny)
		if !reflect.DeepEqual(digests(append(v1, b1)...), digests(append(v2, b2)...)) {
			t.Errorf("seed %d: service-mix payloads differ", seed)
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	_, c1, _ := coldInputs(1, tiny)
	_, c2, _ := coldInputs(2, tiny)
	if reflect.DeepEqual(digests(c1...), digests(c2...)) {
		t.Error("cold-xml payloads identical for seeds 1 and 2")
	}
	_, v1 := mixInputs(1, tiny)
	_, v2 := mixInputs(2, tiny)
	if reflect.DeepEqual(digests(v1...), digests(v2...)) {
		t.Error("service-mix variants identical for seeds 1 and 2")
	}
}

func TestColdPayloadsAreDistinctAndCarryTheirBody(t *testing.T) {
	_, ps, order := coldInputs(3, tiny)
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.digest()] {
			t.Error("two cold-xml payloads are identical")
		}
		seen[p.digest()] = true
		b, err := json.Marshal(p.Req)
		if err != nil || string(b) != string(p.Body) || p.Req.Payloads[0].Data != string(p.Data) {
			t.Error("payload Body is not the wire encoding of Req over Data")
		}
	}
	if len(order) != coldPayloadCount {
		t.Errorf("rotation has %d entries", len(order))
	}
}

func TestMixStreamShape(t *testing.T) {
	s := mixStream(3 * mixEpoch)
	if len(s) < 3*mixEpoch {
		t.Fatalf("stream has %d requests, want >= %d", len(s), 3*mixEpoch)
	}
	if s[0].Class != classCold || s[0].Payload != 0 {
		t.Errorf("first request %+v, want a cold validate of the base", s[0])
	}
	epochStart := 0
	for i, r := range s {
		if r.Class == classWrite {
			if i+1 < len(s) && (s[i+1].Class != classCold || s[i+1].Payload != 0) {
				t.Errorf("request after the write at %d is %+v, want a cold base validate", i, s[i+1])
			}
			epochStart = i
			continue
		}
		if r.Class == classIncremental {
			for j := epochStart; j < i; j++ {
				if s[j].Class == classIncremental && s[j].Payload == r.Payload {
					t.Errorf("variant %d repeats within one epoch (requests %d and %d)", r.Payload, j, i)
				}
			}
			if r.Payload < 1 || r.Payload > mixVariantCount {
				t.Errorf("incremental request %d names payload %d", i, r.Payload)
			}
		} else if r.Payload != 0 {
			t.Errorf("%s request %d names payload %d, want the base", r.Class, i, r.Payload)
		}
	}
	counts := map[string]int{}
	for _, r := range s[:3*mixEpoch-1] { // the first epoch has no write
		counts[r.Class]++
	}
	if counts[classWrite] != 2 || counts[classCold] != 3 || counts[classIncremental] != 3*mixChurnPerEpoch {
		t.Errorf("class counts over three epochs = %v", counts)
	}
}

func TestStoreKeyUndoesXMLScopeFlattening(t *testing.T) {
	for in, want := range map[string]string{
		"Scope::Cluster::europe1-c068[69].Compute[956].ComputePort633": "Cluster::europe1-c068[69].Compute.ComputePort633",
		"Cluster::c1[1].Node[2].NodeQuota19":                           "Cluster::c1[1].Node[2].NodeQuota19",
		"Scope::Top":                                                   "Scope::Top",
	} {
		if got := storeKey(in); got != want {
			t.Errorf("storeKey(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMissedTrueErrorsAcceptsEitherDuplicate(t *testing.T) {
	p := payload{
		Injected: []azuregen.Injection{
			{Key: "C::a[1].X.P", TrueError: true, Kind: "inferred:empty"},
			{Key: "C::b[2].X.Q", TrueError: true, Kind: "inferred:duplicate"},
			{Key: "C::c[3].X.R", TrueError: false, Kind: "benign:new-member"},
		},
		Twins: map[string][]string{"C::b[2].X.Q": {"C::z[9].X.Q"}},
	}
	w := &report.Wire{Violations: []report.WireViolation{
		{Key: "Scope::C::a[1].X[4].P"},
		{Key: "Scope::C::z[9].X[7].Q"},
	}}
	if missed := missedTrueErrors(p, w); len(missed) != 0 {
		t.Errorf("missed %v, want none: the duplicate was reported on its twin", missed)
	}
	w.Violations = w.Violations[:1]
	if missed := missedTrueErrors(p, w); len(missed) != 1 || missed[0].Kind != "inferred:duplicate" {
		t.Errorf("missed %v, want the unreported duplicate only", missed)
	}
}
