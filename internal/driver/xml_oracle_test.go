package driver

// An encoding/xml implementation of the XML driver, kept as the
// differential oracle of the hand-rolled scanner: on every input the
// scanner must reach the same accept/reject verdict and, on accept,
// produce identical instances in the same order.

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"confvalley/internal/azuregen"
	"confvalley/internal/config"
)

// xmlOracle is the encoding/xml-backed reference implementation of
// xmlDriver.
type xmlOracle struct{}

func (xmlOracle) Parse(data []byte, sourceName string) ([]*config.Instance, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	var out []*config.Instance
	var stack []config.Seg
	ix := newIndexer()
	// The document root is a container, not a configuration scope: the
	// paper parses Listing 1's MonitorNodeHealth into
	// CloudGroup.Cloud.MonitorNodeHealth with no root segment. A root
	// element carrying attributes is a real scope and is kept.
	sawRoot := false

	parentKey := func() string {
		return config.Key{Segs: stack}.String()
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xml: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			name := t.Name.Local
			if !sawRoot {
				sawRoot = true
				if len(t.Attr) == 0 && name != "Setting" {
					// Attribute-less document root: container only.
					continue
				}
			}
			if name == "Setting" {
				// Parameter element: <Setting Key="K" Value="V"/>
				var key, val string
				for _, a := range t.Attr {
					switch a.Name.Local {
					case "Key":
						key = a.Value
					case "Value":
						val = a.Value
					}
				}
				if key == "" {
					return nil, fmt.Errorf("xml: Setting element without Key attribute in %s", sourceName)
				}
				k := config.Key{Segs: append(append([]config.Seg{}, stack...), config.Seg{Name: key})}
				out = append(out, &config.Instance{Key: k, Value: val, Source: sourceName})
				if err := dec.Skip(); err != nil {
					return nil, fmt.Errorf("xml: %w", err)
				}
				continue
			}
			// Scope element. Name or Type attribute names the instance.
			seg := config.Seg{Name: name}
			var attrs []xml.Attr
			for _, a := range t.Attr {
				switch a.Name.Local {
				case "Name", "Type":
					if seg.Inst == "" {
						seg.Inst = a.Value
						continue
					}
				}
				attrs = append(attrs, a)
			}
			seg.Index = ix.next(parentKey(), name)
			stack = append(stack, seg)
			// Remaining attributes are parameters of the new scope.
			for _, a := range attrs {
				k := config.Key{Segs: append(append([]config.Seg{}, stack...), config.Seg{Name: a.Name.Local})}
				out = append(out, &config.Instance{Key: k, Value: a.Value, Source: sourceName})
			}
		case xml.EndElement:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xml: unbalanced elements in %s", sourceName)
	}
	return out, nil
}

// checkXMLOracle parses data with the scanner and the oracle and fails
// unless both accept with identical instances or both reject.
func checkXMLOracle(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := xmlDriver{}.Parse(data, "doc.xml")
	want, wantErr := xmlOracle{}.Parse(data, "doc.xml")
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("verdicts differ on %q:\n scanner: %v\n  oracle: %v", data, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%d instances, oracle %d, on %q", len(got), len(want), data)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("instance %d on %q:\n scanner: %+v\n  oracle: %+v", i, data, *got[i], *want[i])
		}
	}
}

// xmlLiterals returns the string literals in a Go source file that look
// like XML documents; with a non-empty decl, only those in the value of
// that top-level declaration.
func xmlLiterals(t *testing.T, file, decl string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var root ast.Node = f
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && decl != "" {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && vs.Names[0].Name == decl {
					root = vs
				}
			}
		}
	}
	var out []string
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(strings.TrimSpace(s), "<") {
				out = append(out, s)
			}
		}
		return true
	})
	if len(out) == 0 {
		t.Fatalf("no XML literals found in %s %s", file, decl)
	}
	return out
}

// The scanner agrees with the oracle on the documents the repository
// actually feeds the XML driver: the generated Type A/B/C corpora, the
// paper's Listing 1, every XML literal of the driver tests, and the
// controller document of examples/crossvalidate.
func TestXMLMatchesOracle(t *testing.T) {
	var docs []string
	for _, ct := range []azuregen.CorpusType{azuregen.TypeA, azuregen.TypeB, azuregen.TypeC} {
		docs = append(docs, string(azuregen.RenderXML(azuregen.Generate(ct, 0.02, 1).Store)))
	}
	docs = append(docs, listingOneXML)
	docs = append(docs, xmlLiterals(t, "driver_test.go", "")...)
	docs = append(docs, xmlLiterals(t, "edge_test.go", "")...)
	for _, s := range xmlLiterals(t, "../../examples/crossvalidate/main.go", "controllerXML") {
		// The example loads it wrapped in a root element.
		docs = append(docs, s, "<Root>"+s+"</Root>")
	}
	for _, d := range docs {
		checkXMLOracle(t, []byte(d))
	}
}

// The name-character tables agree with encoding/xml on every character
// of the Basic Multilingual Plane, both as the first character of a name
// and after one, and on a sample of the supplementary planes. (ASCII
// bytes that are not name bytes end a name rather than invalidate it.)
func TestXMLNameTablesMatchOracle(t *testing.T) {
	accepts := func(doc string) bool {
		d := xml.NewDecoder(strings.NewReader(doc))
		for {
			if _, err := d.Token(); err != nil {
				return err == io.EOF
			}
		}
	}
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if r > 0xFFFF {
			r += 0x3FF
		}
		if r < utf8.RuneSelf && !isNameByte(byte(r)) {
			continue
		}
		ch := string(r)
		if got, want := isXMLName(ch), accepts("<"+ch+"/>"); got != want {
			t.Fatalf("%U as a name start: got %v, encoding/xml %v", r, got, want)
		}
		if got, want := isXMLName("a"+ch), accepts("<a"+ch+"/>"); got != want {
			t.Fatalf("%U inside a name: got %v, encoding/xml %v", r, got, want)
		}
	}
}
