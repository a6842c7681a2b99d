package driver

import (
	"runtime"
	"strings"
	"testing"

	"confvalley/internal/azuregen"
	"confvalley/internal/config"
)

// listingOneXML is Listing 1 from the paper, verbatim structure.
const listingOneXML = `
<Root>
<CloudGroup Name="East1 Production">
  <Setting Key="MonitorNodeHealth" Value="True"/>
  <Setting Key="ControllerReplicas" Value="5"/>
  <Cloud Name="East1Storage1">
    <Tenant Type="A">
      <Setting Key="MonitorNodeHealth" Value="False"/>
    </Tenant>
    <Tenant Type="B" />
  </Cloud>
  <Cloud Name="East1Storage2">
    <Tenant Type="A" />
  </Cloud>
</CloudGroup>
<CloudGroup Name="SSD Cluster">
  <Setting Key="MonitorNodeHealth" Value="True"/>
  <Setting Key="ControllerReplicas" Value="3"/>
  <Cloud Name="East1Compute1">
    <Tenant Type="A">
      <Setting Key="ControllerReplicas" Value="5"/>
    </Tenant>
  </Cloud>
</CloudGroup>
</Root>`

func mustParse(t *testing.T, format, data string) []*config.Instance {
	t.Helper()
	d, err := Lookup(format)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := d.Parse([]byte(data), "test."+format)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func findByKey(ins []*config.Instance, key string) *config.Instance {
	for _, in := range ins {
		if in.Key.String() == key {
			return in
		}
	}
	return nil
}

func TestXMLListingOne(t *testing.T) {
	ins := mustParse(t, "xml", listingOneXML)
	if len(ins) != 6 {
		for _, in := range ins {
			t.Logf("  %s", in)
		}
		t.Fatalf("instances = %d, want 6", len(ins))
	}
	in := findByKey(ins, "CloudGroup::East1 Production[1].Cloud::East1Storage1[1].Tenant::A[1].MonitorNodeHealth")
	if in == nil || in.Value != "False" {
		t.Errorf("tenant override missing or wrong: %v", in)
	}
	in = findByKey(ins, "CloudGroup::SSD Cluster[2].ControllerReplicas")
	if in == nil || in.Value != "3" {
		t.Errorf("SSD ControllerReplicas: %v", in)
	}
}

func TestXMLAttributesBecomeParams(t *testing.T) {
	ins := mustParse(t, "xml", `<LB Name="lb1" Address="10.0.0.1" Location="dc1"/>`)
	if len(ins) != 2 {
		t.Fatalf("instances = %d, want 2", len(ins))
	}
	if in := findByKey(ins, "LB::lb1[1].Address"); in == nil || in.Value != "10.0.0.1" {
		t.Errorf("Address = %v", in)
	}
}

func TestXMLErrors(t *testing.T) {
	d, _ := Lookup("xml")
	if _, err := d.Parse([]byte(`<A><Setting Value="x"/></A>`), "s"); err == nil {
		t.Error("Setting without Key should error")
	}
	if _, err := d.Parse([]byte(`<A><B></A>`), "s"); err == nil {
		t.Error("malformed XML should error")
	}
	// The driver-level errors carry the format prefix and the source.
	for doc, want := range map[string]string{
		`<A><Setting Value="x"/></A>`: "xml: Setting element without Key attribute in site.xml",
		`<A><B Name="b"/>`:            "xml: unbalanced elements in site.xml",
	} {
		if _, err := d.Parse([]byte(doc), "site.xml"); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) error = %v, want %q", doc, err, want)
		}
	}
}

// The XML driver hands out substrings of one copy of the document and
// carves instances and keys from slabs, so its allocations do not grow
// with the instance count (encoding/xml made about 15 per instance).
func TestXMLParseAllocsPerInstance(t *testing.T) {
	data := azuregen.RenderXML(azuregen.GenerateA(0.05, 1).Store)
	d, _ := Lookup("xml")
	ins, err := d.Parse(data, "a.xml")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := d.Parse(data, "a.xml"); err != nil {
			t.Fatal(err)
		}
	})
	if perInstance := allocs / float64(len(ins)); perInstance > 0.1 {
		t.Errorf("%.0f allocations for %d instances = %.3f per instance, want <= 0.1", allocs, len(ins), perInstance)
	}
}

// A key deeper than a slab gets one of its own size, so a deep element
// after many shallow ones cannot make a small document allocate slabs of
// depth × slab-size keys.
func TestXMLDeepKeyAllocation(t *testing.T) {
	doc := "<R>" + strings.Repeat(`<Setting Key="k" Value="v"/>`, 4096) +
		strings.Repeat("<a>", 1000) + `<b x="1"/>` + strings.Repeat("</a>", 1000) + "</R>"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := (xmlDriver{}).Parse([]byte(doc), "deep.xml"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 16<<20 {
		t.Errorf("parsing a %d-byte document allocated %d bytes", len(doc), n)
	}
}

func TestINI(t *testing.T) {
	ins := mustParse(t, "ini", `
# comment
top = 1
[Fabric.Controller]
timeout = 30
retries = 3
[Cluster::East1]
fill_factor = 0.8
; another comment
`)
	if len(ins) != 4 {
		t.Fatalf("instances = %d, want 4", len(ins))
	}
	if in := findByKey(ins, "top"); in == nil || in.Value != "1" {
		t.Errorf("top-level key: %v", in)
	}
	if in := findByKey(ins, "Fabric.Controller.timeout"); in == nil || in.Value != "30" {
		t.Errorf("section key: %v", in)
	}
	if in := findByKey(ins, "Cluster::East1.fill_factor"); in == nil || in.Value != "0.8" {
		t.Errorf("instance section: %v", in)
	}
	if in := findByKey(ins, "Fabric.Controller.retries"); in == nil || in.Line != 6 {
		t.Errorf("line tracking: %+v", in)
	}
}

func TestINIErrors(t *testing.T) {
	d, _ := Lookup("ini")
	for _, bad := range []string{"[unclosed", "novalue", "= bare"} {
		if _, err := d.Parse([]byte(bad), "s"); err == nil {
			t.Errorf("input %q should error", bad)
		}
	}
}

func TestKV(t *testing.T) {
	ins := mustParse(t, "kv", `
Cluster::c1.Node::n1.HeartbeatTimeout = 30
Cluster::c1.Node::n2.HeartbeatTimeout = 30
Fabric.RecoveryAttempts = 5
`)
	if len(ins) != 3 {
		t.Fatalf("instances = %d", len(ins))
	}
	if in := findByKey(ins, "Cluster::c1.Node::n2.HeartbeatTimeout"); in == nil || in.Value != "30" {
		t.Errorf("kv instance: %v", in)
	}
}

func TestJSON(t *testing.T) {
	ins := mustParse(t, "json", `{
  "Fabric": {"RecoveryAttempts": 5, "MonitorTenant": true},
  "Clouds": [
    {"Name": "east1", "ProxyIP": "10.0.0.1"},
    {"Name": "west1", "ProxyIP": "10.0.0.2"}
  ],
  "AllowedPorts": [80, 443]
}`)
	if in := findByKey(ins, "Fabric.RecoveryAttempts"); in == nil || in.Value != "5" {
		t.Errorf("nested object: %v", in)
	}
	if in := findByKey(ins, "Fabric.MonitorTenant"); in == nil || in.Value != "true" {
		t.Errorf("bool leaf: %v", in)
	}
	if in := findByKey(ins, "Clouds::west1[2].ProxyIP"); in == nil || in.Value != "10.0.0.2" {
		t.Errorf("array of objects: %v", in)
	}
	if in := findByKey(ins, "AllowedPorts[2]"); in == nil || in.Value != "443" {
		t.Errorf("array of scalars: %v", in)
	}
}

func TestJSONErrors(t *testing.T) {
	d, _ := Lookup("json")
	for _, bad := range []string{`[1,2]`, `"scalar"`, `{bad`} {
		if _, err := d.Parse([]byte(bad), "s"); err == nil {
			t.Errorf("input %q should error", bad)
		}
	}
}

func TestYAML(t *testing.T) {
	ins := mustParse(t, "yaml", `---
# OpenStack style
keystone:
  auth_host: 10.0.0.1
  auth_port: 35357
compute:
  workers: 4
  debug: "false"
listeners:
  - name: web
    port: 80
  - name: api
    port: 8080
`)
	if in := findByKey(ins, "keystone[1].auth_host"); in == nil || in.Value != "10.0.0.1" {
		for _, i2 := range ins {
			t.Logf("  %s", i2)
		}
		t.Fatalf("nested mapping: %v", in)
	}
	if in := findByKey(ins, "compute[1].debug"); in == nil || in.Value != "false" {
		t.Errorf("quoted scalar: %v", in)
	}
	web := findByKey(ins, "listeners::web[1].port")
	api := findByKey(ins, "listeners::api[2].port")
	if web == nil || web.Value != "80" || api == nil || api.Value != "8080" {
		for _, i2 := range ins {
			t.Logf("  %s", i2)
		}
		t.Errorf("sequence items: web=%v api=%v", web, api)
	}
}

func TestCSV(t *testing.T) {
	ins := mustParse(t, "csv", `#class LoadBalancer
Name,Address,Location
lb1,10.0.0.1,dc1
lb2,10.0.0.2,dc2
`)
	if len(ins) != 4 {
		t.Fatalf("instances = %d, want 4", len(ins))
	}
	if in := findByKey(ins, "LoadBalancer::lb2[2].Address"); in == nil || in.Value != "10.0.0.2" {
		t.Errorf("csv row: %v", in)
	}
}

func TestCSVDefaultClassAndErrors(t *testing.T) {
	ins := mustParse(t, "csv", "A,B\n1,2\n")
	if in := findByKey(ins, "Row[1].B"); in == nil || in.Value != "2" {
		t.Errorf("default class: %v", in)
	}
	d, _ := Lookup("csv")
	if _, err := d.Parse([]byte(""), "s"); err == nil {
		t.Error("empty csv should error")
	}
}

func TestREST(t *testing.T) {
	ClearEndpoints()
	RegisterEndpoint("10.119.64.74:443", []byte(`{"RunningInstance": {"State": "healthy"}}`))
	ins := mustParse(t, "rest", "10.119.64.74:443")
	if in := findByKey(ins, "RunningInstance.State"); in == nil || in.Value != "healthy" {
		t.Errorf("rest: %v", in)
	}
	d, _ := Lookup("rest")
	if _, err := d.Parse([]byte("nowhere:1"), "s"); err == nil {
		t.Error("unregistered endpoint should error")
	}
}

func TestLoadIntoWithScope(t *testing.T) {
	st := config.NewStore()
	n, err := LoadInto(st, "kv", []byte("Timeout = 30"), "fabric.kv", "Fabric")
	if err != nil || n != 1 {
		t.Fatalf("LoadInto = %d, %v", n, err)
	}
	got := st.Discover(config.P("Fabric", "Timeout"))
	if len(got) != 1 || got[0].Value != "30" {
		t.Errorf("scoped load: %v", got)
	}
	if _, err := LoadInto(st, "nosuch", nil, "s", ""); err == nil {
		t.Error("unknown driver should error")
	}
	if _, err := LoadInto(st, "kv", []byte("a=1"), "s", "Bad::$var"); err == nil {
		t.Error("scope with variables should error")
	}
}

func TestLookupAndNames(t *testing.T) {
	names := Names()
	want := []string{"csv", "ini", "json", "kv", "rest", "xml", "yaml"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("Names = %v, want %v", names, want)
	}
	if _, err := Lookup("xml"); err != nil {
		t.Error(err)
	}
}
