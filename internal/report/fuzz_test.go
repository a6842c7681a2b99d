package report

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeWire holds DecodeWire to its contract over arbitrary bytes,
// since wire reports reach cvcall and log pipelines from outside: it
// never panics, and any report it accepts is a fixed point after one
// encoding, both as a Wire and rebuilt through Report.
func FuzzDecodeWire(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "wire_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"schema_version":1,"violations":[]}`))
	f.Add([]byte(`{"schema_version":1,"violations":null,"spec_errors":[""]}`))
	f.Add([]byte(`{"schema_version":1,"violations":[{"severity":"bogus","value":"\ud800"}]}`))
	f.Add([]byte(`{"schema_version":-1}`))
	f.Add([]byte(`{"schema_version":2}`))
	f.Add([]byte(`{"SCHEMA_VERSION":1,"schema_version":1,"duration_ns":-5}`))
	f.Add([]byte("{\"schema_version\":1,\"violations\":[{\"key\":\"\xff<&>\"}]}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWire(data)
		if err != nil {
			return
		}
		for name, encode := range map[string]func(*Wire) ([]byte, error){
			"wire":   func(w *Wire) ([]byte, error) { return json.Marshal(w) },
			"report": func(w *Wire) ([]byte, error) { return w.Report().EncodeWire() },
		} {
			first, err := encode(w)
			if err != nil {
				t.Fatalf("%s: encoding an accepted report: %v", name, err)
			}
			again, err := DecodeWire(first)
			if err != nil {
				t.Fatalf("%s: decoding our own encoding %s: %v", name, first, err)
			}
			second, err := encode(again)
			if err != nil {
				t.Fatalf("%s: re-encoding: %v", name, err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("%s: encoding is not a fixed point:\n first: %s\nsecond: %s", name, first, second)
			}
		}
	})
}
