package serve

// FuzzValidateHTTP holds the validate endpoint's two wire forms to one
// behaviour over arbitrary input: whatever (name, format, scope, data)
// a client sends, neither form panics or answers 5xx, both answer the
// same status, and an accepted request gets the same report either way.
// Arbitrary bytes as a JSON body must be refused as the client's fault.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"confvalley/internal/driver"
	"confvalley/internal/driver/drivertest"
)

const fuzzSpec = `$app.timeout -> int & [1, 60]
$db.host -> nonempty
$ControllerReplicas -> int & [1, 4]
`

func FuzzValidateHTTP(f *testing.F) {
	for _, seed := range append(append([][]byte{}, drivertest.CommonSeeds...), drivertest.XMLSeeds...) {
		f.Add("setting.xml", "xml", "", seed)
	}
	f.Add("setting.xml", "", "Cluster", []byte(listingOneXML))
	f.Add("app.kv", "kv", "", []byte("app.timeout = 400\ndb.host =\n"))
	f.Add("app.ini", "", "Svc", []byte("[app]\ntimeout = 30\n[db]\nhost = \"db1\"\n"))
	f.Add("", "", "", []byte(`{"payloads":[{"name":"a.kv","data":"app.timeout = 9\n"}]}`))

	// A payload of format "rest" names an endpoint to fetch; the
	// default transport is an in-process registry, so a miss fails
	// fast once retries are off.
	prev := driver.SetRetryPolicy(driver.RetryPolicy{Attempts: 1})
	f.Cleanup(func() { driver.SetRetryPolicy(prev) })

	srv := New(Config{
		SnapshotCacheSize: -1, ResultCacheSize: -1, NoIncremental: true,
		Quotas: Quotas{MaxPayloadBytes: 1 << 14},
	})
	if _, err := srv.RegisterSpec("fuzz", "checks", fuzzSpec); err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, name, format, scope string, data []byte) {
		p := PayloadRef{Name: name, Format: format, Scope: scope, Data: string(data)}
		raw := serveRaw(h, "fuzz", "checks", p)
		if raw.Code >= 500 {
			t.Fatalf("raw form: status %d: %s", raw.Code, raw.Body)
		}

		// JSON strings carry only valid UTF-8, so the JSON form's
		// payload is what its encoding decodes back to; when that
		// differs from the input, the raw form is re-sent with it.
		body, err := json.Marshal(ValidateRequest{Payloads: []PayloadRef{p}})
		if err != nil {
			t.Fatal(err)
		}
		var back ValidateRequest
		if err := json.Unmarshal(body, &back); err != nil {
			t.Fatal(err)
		}
		if back.Payloads[0] != p {
			raw = serveRaw(h, "fuzz", "checks", back.Payloads[0])
		}
		js := serveJSON(h, "fuzz", "checks", body)
		if raw.Code != js.Code {
			t.Fatalf("raw form status %d (%s), JSON form %d (%s)", raw.Code, raw.Body, js.Code, js.Body)
		}
		if raw.Code == http.StatusOK {
			a, b := decodeOK(t, raw), decodeOK(t, js)
			if ra, rb := wireModuloTiming(t, a.Report), wireModuloTiming(t, b.Report); !bytes.Equal(ra, rb) || a.Code != b.Code {
				t.Fatalf("forms disagree:\n raw: %d %s\njson: %d %s", a.Code, ra, b.Code, rb)
			}
		}

		// The data itself as a JSON body: refused unless it decodes.
		// Decodable bodies naming server-side sources are not sent — a
		// source is a path on the server's filesystem.
		var req ValidateRequest
		decodeErr := json.Unmarshal(data, &req)
		if decodeErr == nil && len(req.Sources) > 0 {
			return
		}
		code := serveJSON(h, "fuzz", "checks", data).Code
		if code >= 500 || (decodeErr != nil && code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge) {
			t.Fatalf("JSON body %q: status %d", data, code)
		}
	})
}
