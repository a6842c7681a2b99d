package serve

// The raw validate form: one payload as the request body, its metadata
// in the query. These tests pin its byte quota, its body-read error
// classification, and that it shares the JSON form's result cache.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// rawRequest builds a raw-form validate request for one payload.
func rawRequest(tenant, spec string, p PayloadRef) *http.Request {
	q := url.Values{"name": {p.Name}, "format": {p.Format}, "scope": {p.Scope}}
	r := httptest.NewRequest(http.MethodPost,
		"/v1/tenants/"+tenant+"/specs/"+spec+"/validate?"+q.Encode(), strings.NewReader(p.Data))
	r.Header.Set("Content-Type", rawContentType)
	return r
}

// serveRaw sends one payload in the raw form straight to a handler.
func serveRaw(h http.Handler, tenant, spec string, p PayloadRef) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, rawRequest(tenant, spec, p))
	return rec
}

// serveJSON sends a JSON-form validate body straight to a handler.
func serveJSON(h http.Handler, tenant, spec string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/tenants/"+tenant+"/specs/"+spec+"/validate", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, r)
	return rec
}

// decodeOK decodes a 200 validate response.
func decodeOK(t testing.TB, rec *httptest.ResponseRecorder) *ValidateResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp ValidateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// The JSON form of a payload populates its canonical result-cache
// entry, which a raw request for the same payload then hits, as does a
// raw repeat; the counter identity hits + coalesced + validations =
// requests holds over the mix.
func TestRawAndJSONFormsShareResultCache(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	if _, err := srv.RegisterSpec("acme", "checks", cacheSpec); err != nil {
		t.Fatal(err)
	}
	p := PayloadRef{Name: "app.kv", Format: "kv", Data: "app.timeout = 400\napp.retries = 2\ndb.host = db1\n"}
	body, err := json.Marshal(ValidateRequest{Payloads: []PayloadRef{p}})
	if err != nil {
		t.Fatal(err)
	}
	first := decodeOK(t, serveJSON(h, "acme", "checks", body))
	want := wireModuloCaching(t, first.Report)
	for i := 0; i < 2; i++ {
		resp := decodeOK(t, serveRaw(h, "acme", "checks", p))
		if got := wireModuloCaching(t, resp.Report); !bytes.Equal(got, want) {
			t.Errorf("raw request %d diverged from the JSON one:\n got: %s\nwant: %s", i, got, want)
		}
	}
	st := srv.Stats()
	if st.Validations != 1 || st.ResultCacheHits != 2 {
		t.Errorf("stats = %d validations / %d hits, want 1 / 2 (raw requests must hit the JSON request's entry)",
			st.Validations, st.ResultCacheHits)
	}
	if n := st.Validations + st.ResultCacheHits + st.CoalescedRequests; n != 3 {
		t.Errorf("hits + coalesced + validations = %d, want 3 requests", n)
	}
	// A raw request keeps no alias: its canonical key is its own digest.
	if tn, _ := srv.tenantFor("acme", false); len(tn.results.rawItems) != 1 {
		t.Errorf("raw-body aliases = %d, want 1 (the JSON request's)", len(tn.results.rawItems))
	}
}

// The raw form's byte quota is exact: a body of MaxPayloadBytes is
// accepted, one byte more is 413, and so is a body far over the bound.
func TestRawBodyQuota(t *testing.T) {
	const quota = 1 << 10
	srv := New(Config{Quotas: Quotas{MaxPayloadBytes: quota}})
	h := srv.Handler()
	if _, err := srv.RegisterSpec("acme", "checks", cacheSpec); err != nil {
		t.Fatal(err)
	}
	line := "app.timeout = 30\n"
	fill := func(n int) string {
		s := strings.Repeat(line, n/len(line)+1)[:n-1]
		return s + "\n"
	}
	for _, tc := range []struct {
		n    int
		code int
	}{
		{quota, http.StatusOK},
		{quota + 1, http.StatusRequestEntityTooLarge},
		{4 * quota, http.StatusRequestEntityTooLarge},
	} {
		rec := serveRaw(h, "acme", "checks", PayloadRef{Name: "app.kv", Data: fill(tc.n)})
		if rec.Code != tc.code {
			t.Errorf("%d-byte raw body: status %d, want %d: %s", tc.n, rec.Code, tc.code, rec.Body)
		}
	}

	// Over a real connection the client sees the typed error.
	hs := httptest.NewServer(h)
	defer hs.Close()
	c := &Client{Base: hs.URL, Tenant: "acme", HTTP: hs.Client()}
	if _, err := c.Validate(context.Background(), "checks", ValidateRequest{
		Payloads: []PayloadRef{{Name: "app.kv", Data: fill(quota + 1)}},
	}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("over-quota raw validate = %v, want ErrTooLarge", err)
	}
}

// A Content-Length over the bound is refused with 413 before any of
// the body is read, and no buffer of the claimed size is allocated.
func TestRawBodyLyingLengthIs413WithoutAllocating(t *testing.T) {
	const quota = 1 << 20
	srv := New(Config{Quotas: Quotas{MaxPayloadBytes: quota}})
	h := srv.Handler()
	if _, err := srv.RegisterSpec("acme", "checks", cacheSpec); err != nil {
		t.Fatal(err)
	}
	r := rawRequest("acme", "checks", PayloadRef{Name: "app.kv", Data: "app.timeout = 30\n"})
	r.ContentLength = 64 << 20
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, r)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("claimed 64 MiB: status %d, want 413: %s", rec.Code, rec.Body)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > quota {
		t.Errorf("refusing a claimed 64 MiB body allocated %d bytes", n)
	}
}

// firstReadBody signals once when a handler first reads the request
// body, by which time the handler has sized its read buffer.
type firstReadBody struct {
	io.ReadCloser
	once sync.Once
	read chan<- struct{}
}

func (b *firstReadBody) Read(p []byte) (int, error) {
	b.once.Do(func() { b.read <- struct{}{} })
	return b.ReadCloser.Read(p)
}

// Idle uploads that each declare a body at the bound and then send
// nothing hold heap in proportion to the bytes received, not to the
// declared length, on every body reader: the raw and JSON validate
// forms and the spec PUT.
func TestIdleUploadsDoNotPinDeclaredLength(t *testing.T) {
	const quota = 2 << 20
	srv := New(Config{Quotas: Quotas{MaxPayloadBytes: quota, MaxSpecBytes: quota}})
	if _, err := srv.RegisterSpec("acme", "checks", cacheSpec); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	read := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = &firstReadBody{ReadCloser: r.Body, read: read}
		h.ServeHTTP(w, r)
	}))
	defer hs.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	heads := []string{
		fmt.Sprintf("POST /v1/tenants/acme/specs/checks/validate?name=app.kv HTTP/1.1\r\n"+
			"Content-Type: application/octet-stream\r\nContent-Length: %d\r\n", quota+1),
		fmt.Sprintf("POST /v1/tenants/acme/specs/checks/validate HTTP/1.1\r\n"+
			"Content-Type: application/json\r\nContent-Length: %d\r\n", 2*quota+(1<<20)),
		fmt.Sprintf("PUT /v1/tenants/acme/specs/idle HTTP/1.1\r\nContent-Length: %d\r\n", quota+1),
	}
	const perRoute = 2
	for _, head := range heads {
		for i := 0; i < perRoute; i++ {
			conn, err := net.Dial("tcp", strings.TrimPrefix(hs.URL, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			fmt.Fprintf(conn, "%sHost: x\r\n\r\n", head)
		}
	}
	for i := 0; i < perRoute*len(heads); i++ {
		select {
		case <-read:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d idle uploads reached the body read", i, perRoute*len(heads))
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > quota {
		t.Errorf("%d idle uploads declaring bodies at the bound hold %d bytes of heap, want under %d",
			perRoute*len(heads), grew, quota)
	}
}

// Client.Validate sends a single payload raw and anything else as
// JSON, with the JSON form unescaped.
func TestClientValidateWireForm(t *testing.T) {
	var gotType, gotQuery string
	var gotBody []byte
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotType, gotQuery = r.Header.Get("Content-Type"), r.URL.RawQuery
		gotBody, _ = readBody(w, r, 1<<20)
		writeJSON(w, http.StatusOK, ValidateResponse{})
	}))
	defer hs.Close()
	c := &Client{Base: hs.URL, Tenant: "acme", HTTP: hs.Client()}
	ctx := context.Background()

	one := PayloadRef{Name: "a b.xml", Format: "xml", Scope: "S", Data: "<A n=\"1\">&amp;</A>"}
	if _, err := c.Validate(ctx, "checks", ValidateRequest{Payloads: []PayloadRef{one}}); err != nil {
		t.Fatal(err)
	}
	if gotType != rawContentType || string(gotBody) != one.Data {
		t.Errorf("single payload sent as %q %q, want the raw payload", gotType, gotBody)
	}
	if q, _ := url.ParseQuery(gotQuery); q.Get("name") != one.Name || q.Get("format") != one.Format || q.Get("scope") != one.Scope {
		t.Errorf("raw metadata query = %q", gotQuery)
	}

	two := ValidateRequest{Payloads: []PayloadRef{one, {Name: "b.kv", Data: "k = v\n"}}}
	if _, err := c.Validate(ctx, "checks", two); err != nil {
		t.Fatal(err)
	}
	if gotType != "application/json" || !bytes.Contains(gotBody, []byte(`<A n=\"1\">&amp;`)) {
		t.Errorf("two payloads sent as %q %s, want unescaped JSON", gotType, gotBody)
	}
	var back ValidateRequest
	if err := json.Unmarshal(gotBody, &back); err != nil || len(back.Payloads) != 2 || back.Payloads[0] != one {
		t.Errorf("JSON body decodes to %+v, %v", back, err)
	}
}
