package driver

// Never-panic contract of the format drivers: whatever bytes a torn
// write, a hostile file, or a flaky endpoint delivers, Parse returns
// (instances, error) — it does not panic. The seeds bake in the hostile
// shapes the fault-injection work surfaced: truncated documents, invalid
// UTF-8, deep nesting, bare delimiters, and empty input. CI runs each
// fuzzer briefly (go test -fuzz) on top of the seed corpus.

import (
	"strings"
	"testing"
	"unicode/utf8"

	"confvalley/internal/config"
	"confvalley/internal/driver/drivertest"
)

// checkParse runs one driver over one input, failing the fuzz run on a
// panic (the recover here is only to attach the offending input; without
// it the panic would still fail the run but without context).
func checkParse(t *testing.T, name string, d interface {
	Parse([]byte, string) ([]*config.Instance, error)
}, data []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s driver panicked on %q: %v", name, data, r)
		}
	}()
	ins, err := d.Parse(data, "fuzz-input")
	if err != nil {
		return
	}
	// On success every instance must be well-formed enough to validate.
	for _, in := range ins {
		if in == nil {
			t.Fatalf("%s driver returned a nil instance for %q", name, data)
		}
		if in.Key.String() == "" {
			t.Fatalf("%s driver returned an instance with an empty key for %q", name, data)
		}
	}
}

func commonSeeds(f *testing.F) {
	for _, seed := range drivertest.CommonSeeds {
		f.Add(seed)
	}
}

func FuzzINI(f *testing.F) {
	commonSeeds(f)
	f.Add([]byte("[db]\nport = 5432\n"))
	f.Add([]byte("[unclosed"))
	f.Add([]byte("novalue"))
	f.Add([]byte("= bare"))
	f.Add([]byte("[a]\nk = 'quoted'\n"))
	f.Add([]byte("[a]\nk = \"half"))
	f.Add([]byte("[]\nk = v\n"))
	f.Add([]byte("; comment only\n# and another\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, "ini", iniDriver{}, data)
	})
}

func FuzzKV(f *testing.F) {
	commonSeeds(f)
	f.Add([]byte("port = 8080\n"))
	f.Add([]byte("a.b.c = deep\n"))
	f.Add([]byte("key with spaces = v\n"))
	f.Add([]byte("k =\n= v\n"))
	f.Add([]byte("$=")) // regression: parsed to an instance with an empty key
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, "kv", kvDriver{}, data)
	})
}

func FuzzCSV(f *testing.F) {
	commonSeeds(f)
	f.Add([]byte("name,value\ntimeout,30\n"))
	f.Add([]byte("name,value\ntimeout\n"))          // short row
	f.Add([]byte("a,b,c\n1,2,3,4\n"))               // long row
	f.Add([]byte("\"unterminated,quote\n"))         // bad quoting
	f.Add([]byte("name,value\r\ntimeout,30\r\n"))   // CRLF
	f.Add([]byte("name,value\n\"a\"\"b\",\"c,d\"")) // escaped quotes
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, "csv", csvDriver{}, data)
	})
}

func FuzzYAML(f *testing.F) {
	commonSeeds(f)
	f.Add([]byte("svc:\n  mode: fast\n"))
	f.Add([]byte("svc:\n- a\n- b\n"))
	f.Add([]byte("a:\n  b:\n    c:\n      d: deep\n"))
	f.Add([]byte("svc:\n\tmode: tab-indent\n"))
	f.Add([]byte("key: [inline, flow"))
	f.Add([]byte("- - - - nested\n"))
	f.Add([]byte(":\n"))
	f.Add([]byte("a: |\n  block\n  scalar\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, "yaml", yamlDriver{}, data)
	})
}

func FuzzJSON(f *testing.F) {
	commonSeeds(f)
	f.Add([]byte(`{"app": {"timeout": "30"}}`))
	f.Add([]byte(`{"app":`))
	f.Add([]byte(`{"a": [1, {"b": null}, true]}`))
	f.Add([]byte(`{"":""}`)) // regression: empty member name became an empty key
	f.Add([]byte(`{"a": "` + strings.Repeat(`\u0000`, 64) + `"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, "json", jsonDriver{}, data)
	})
}

func FuzzXML(f *testing.F) {
	commonSeeds(f)
	for _, seed := range drivertest.XMLSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, "xml", xmlDriver{}, data)
		checkXMLOracle(t, data)
	})
}

// The never-panic contract holds for every registered driver over a
// shared corpus of hostile inputs — a quick deterministic sweep that runs
// on every plain `go test`, complementing the fuzzers above.
func TestDriversNeverPanicOnHostileCorpus(t *testing.T) {
	corpus := [][]byte{
		nil,
		[]byte(""),
		[]byte("\x00"),
		[]byte("\xff\xfe\xfd"),
		[]byte("{"), []byte("["), []byte("<"), []byte("'"), []byte("\""),
		[]byte(strings.Repeat("[", 1024)),
		[]byte(strings.Repeat("a:\n ", 256)),
		[]byte(strings.Repeat(`{"a":`, 128)),
		[]byte("k\x00ey = va\x00lue"),
	}
	drivers := map[string]interface {
		Parse([]byte, string) ([]*config.Instance, error)
	}{
		"ini": iniDriver{}, "kv": kvDriver{}, "csv": csvDriver{},
		"yaml": yamlDriver{}, "json": jsonDriver{}, "xml": xmlDriver{},
	}
	for name, d := range drivers {
		for _, data := range corpus {
			checkParse(t, name, d, data)
			if !utf8.Valid(data) {
				// Also exercise the scoped path drivers share.
				checkParse(t, name, d, append([]byte("scope."), data...))
			}
		}
	}
}
