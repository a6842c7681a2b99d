// Package drivertest holds the hostile-input seeds the format-driver
// fuzzers start from, so fuzz targets outside the driver package (the
// service's HTTP body fuzzer) start from the same corpus.
package drivertest

import "strings"

// CommonSeeds are inputs every driver must survive: empty input,
// control bytes, invalid UTF-8, a long run, bare newlines and bare
// delimiters.
var CommonSeeds = [][]byte{
	[]byte(""),
	[]byte("\x00\x01\x02"),
	[]byte("\xff\xfe invalid utf8 \xc3\x28"),
	[]byte(strings.Repeat("a", 1<<12)),
	[]byte("\n\n\n"),
	[]byte("="),
	[]byte(" = "),
}

// XMLSeeds are the XML driver's own seeds. Most are differential: each
// exercises a check the scanner shares with the encoding/xml oracle.
var XMLSeeds = [][]byte{
	[]byte(`<configuration><add key="a" value="1"/></configuration>`),
	[]byte(`<a><b></a></b>`), // mismatched tags
	[]byte(`<a attr="unterminated`),
	[]byte(`<?xml version="1.0"?><a/>`),
	[]byte(`<A><Setting Key="k" Value="a&amp;b&#x41;&#66;&lt;&gt;&apos;&quot;"/></A>`),
	[]byte(`<A><Setting Key="k" Value="&foo;"/></A>`),
	[]byte(`<A><Setting Key="k" Value="a & b"/></A>`),
	[]byte(`<A><Setting Key="k" Value="&#xD800;&#0;"/></A>`),
	[]byte("<A><Setting Key=\"k\" Value=\"line1\r\nline2\rline3\"/>\r\n</A>"),
	[]byte(`<A N="1"><![CDATA[a > b <c> ]]]]><Setting Key="k" Value="v"/></A>`),
	[]byte(`<!-- lead --><?pi data?><!DOCTYPE A [<!ENTITY e "x>y"> <!-- c> -->]><A n="1"/>`),
	[]byte(`<?xml version="1.1"?><A n="1"/>`),
	[]byte(`<?xml version="1.0" encoding="ISO-8859-1"?><A n="1"/>`),
	[]byte(`<p:A xmlns:p="urn:x" p:Name="i" q:Mode="m"><p:Setting p:Key="k" Value="v"/></p:A>`),
	[]byte(`<a:b:c/>`),
	[]byte(`<A n="1">x ]]> y</A>`),
	[]byte("<A n=\"\uFFFE\"/>"),
	[]byte("<A\xff n=\"1\"/>"),
	[]byte("<A n=\"\xc3\x28\"/>"),
	[]byte(`<A><Setting Key="k" Value="v"><B Name="x" P="1"/></Setting></A>`),
	[]byte(`<A n="1"/><B n="2"/><A n="3"/>`),
	[]byte(`<Root><A Name="x">`),
}
