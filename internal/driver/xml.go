package driver

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"confvalley/internal/config"
)

// xmlDriver handles the generic hierarchical XML settings format used
// throughout the paper (Listing 1): elements form scopes, a Name (or Type)
// attribute names the scope instance, <Setting Key=... Value=...> elements
// define parameters, and any other attribute becomes a parameter of its
// element's scope.
//
// Parse is a hand-rolled scanner over one string copy of the input. It
// accepts exactly the documents encoding/xml's strict Decoder accepts —
// the differential oracle in xml_oracle_test.go holds it to that — and
// hands out names and values as substrings of that copy, carving
// instances and keys from shared slabs, so a 67k-instance document costs
// about a hundred allocations rather than a million.
type xmlDriver struct{}

func init() { Register(xmlDriver{}) }

func (xmlDriver) Name() string { return "xml" }

func (xmlDriver) Parse(data []byte, sourceName string) ([]*config.Instance, error) {
	p := &xmlParser{s: string(data), src: sourceName, counts: make(map[string]*int)}
	if err := p.document(); err != nil {
		return nil, err
	}
	return p.out, nil
}

// xmlParser is the state of one Parse call.
type xmlParser struct {
	s   string
	pos int
	src string
	out []*config.Instance

	open   []xmlOpen    // open elements, innermost last
	scopes []config.Seg // open configuration scopes
	// path is config.Key{Segs: scopes}.String(), kept as scopes open and
	// close; sibling ordinals are counted per path + "\x00" + name.
	path   []byte
	counts map[string]*int
	// skip is len(open) at the Setting element whose children are being
	// skipped, 0 when none is.
	skip int
	// The document root is a container, not a configuration scope: the
	// paper parses Listing 1's MonitorNodeHealth into
	// CloudGroup.Cloud.MonitorNodeHealth with no root segment. A root
	// element carrying attributes is a real scope and is kept.
	sawRoot bool
	attrs   []xmlAttr // the current start tag's attributes

	ins  []config.Instance // slab the next instances are carved from
	segs []config.Seg      // slab the next keys are carved from
}

type xmlOpen struct {
	name    string // qualified name as written, matched against the end tag
	pathLen int    // len(path) before the element opened its scope; -1 if it opened none
}

type xmlAttr struct{ local, value string }

func (p *xmlParser) document() error {
	for p.pos < len(p.s) {
		var err error
		if p.s[p.pos] != '<' {
			_, _, err = p.text(0) // character data is checked, then dropped
		} else {
			p.pos++
			var c byte
			if c, err = p.next(); err == nil {
				switch c {
				case '/':
					err = p.endTag()
				case '?':
					err = p.procInst()
				case '!':
					err = p.bang()
				default:
					p.pos--
					err = p.startTag()
				}
			}
		}
		if err != nil {
			return err
		}
	}
	if len(p.open) != 0 {
		return fmt.Errorf("xml: unbalanced elements in %s", p.src)
	}
	return nil
}

func (p *xmlParser) startTag() error {
	name, local, err := p.qname("element name after <")
	if err != nil {
		return err
	}
	p.attrs = p.attrs[:0]
	empty := false
	for {
		p.space()
		c, err := p.next()
		if err != nil {
			return err
		}
		if c == '/' {
			if err := p.expect('>', "expected /> in element"); err != nil {
				return err
			}
			empty = true
			break
		}
		if c == '>' {
			break
		}
		p.pos--
		_, alocal, err := p.qname("attribute name in element")
		if err != nil {
			return err
		}
		p.space()
		if err := p.expect('=', "attribute name without = in element"); err != nil {
			return err
		}
		p.space()
		if c, err = p.next(); err != nil {
			return err
		}
		if c != '"' && c != '\'' {
			return p.syntax("unquoted or missing attribute value in element")
		}
		val, escaped, err := p.text(c)
		if err != nil {
			return err
		}
		if escaped {
			val = unescapeXML(val)
		}
		p.attrs = append(p.attrs, xmlAttr{alocal, val})
	}
	if err := p.element(name, local); err != nil {
		return err
	}
	if empty {
		p.closeElement()
	}
	return nil
}

// element applies the settings-format rules to a start tag whose
// attributes are in p.attrs.
func (p *xmlParser) element(name, local string) error {
	open := xmlOpen{name: name, pathLen: -1}
	switch {
	case p.skip > 0:
		// Inside a Setting: children are checked, not interpreted.
	case !p.sawRoot && len(p.attrs) == 0 && local != "Setting":
		// Attribute-less document root: container only.
	case local == "Setting":
		// Parameter element: <Setting Key="K" Value="V"/>
		var key, val string
		for _, a := range p.attrs {
			switch a.local {
			case "Key":
				key = a.value
			case "Value":
				val = a.value
			}
		}
		if key == "" {
			return fmt.Errorf("xml: Setting element without Key attribute in %s", p.src)
		}
		p.emit(config.Seg{Name: key}, val)
		p.skip = len(p.open) + 1
	default:
		// Scope element. Name or Type attribute names the instance;
		// remaining attributes are parameters of the new scope.
		seg := config.Seg{Name: local}
		params := p.attrs[:0]
		for _, a := range p.attrs {
			if (a.local == "Name" || a.local == "Type") && seg.Inst == "" {
				seg.Inst = a.value
				continue
			}
			params = append(params, a)
		}
		seg.Index = p.ordinal(local)
		open.pathLen = len(p.path)
		p.pushScope(seg)
		for _, a := range params {
			p.emit(config.Seg{Name: a.local}, a.value)
		}
	}
	p.sawRoot = true
	p.open = append(p.open, open)
	return nil
}

// ordinal returns the 1-based position of a child called name among its
// same-named siblings under the current scope path.
func (p *xmlParser) ordinal(name string) int {
	k := append(append(p.path, 0), name...)
	p.path = k[:len(p.path)]
	c := p.counts[string(k)]
	if c == nil {
		c = new(int)
		p.counts[string(k)] = c
	}
	*c++
	return *c
}

// pushScope opens seg and appends its rendering (config.Seg.String) to
// the path.
func (p *xmlParser) pushScope(seg config.Seg) {
	if len(p.scopes) > 0 {
		p.path = append(p.path, '.')
	}
	p.scopes = append(p.scopes, seg)
	p.path = append(p.path, seg.Name...)
	if seg.Inst != "" {
		p.path = append(append(p.path, "::"...), seg.Inst...)
	}
	p.path = append(strconv.AppendInt(append(p.path, '['), int64(seg.Index), 10), ']')
}

// emit records one instance keyed by the open scopes plus leaf.
func (p *xmlParser) emit(leaf config.Seg, value string) {
	n := len(p.scopes) + 1
	// Slabs grow with the output, so small documents stay small; a key
	// deeper than a slab gets its own, so deep nesting cannot inflate one.
	chunk := min(max(len(p.out), 32), 2048)
	if len(p.segs) < n {
		p.segs = make([]config.Seg, max(n, 4*chunk))
	}
	segs := p.segs[:n:n]
	p.segs = p.segs[n:]
	copy(segs, p.scopes)
	segs[n-1] = leaf
	if len(p.ins) == 0 {
		p.ins = make([]config.Instance, chunk)
	}
	in := &p.ins[0]
	p.ins = p.ins[1:]
	*in = config.Instance{Key: config.Key{Segs: segs}, Value: value, Source: p.src}
	p.out = append(p.out, in)
}

func (p *xmlParser) endTag() error {
	name, local, err := p.qname("element name after </")
	if err != nil {
		return err
	}
	p.space()
	c, err := p.next()
	if err != nil {
		return err
	}
	if c != '>' {
		return p.syntax("invalid characters between </" + local + " and >")
	}
	if len(p.open) == 0 {
		return p.syntax("unexpected end element </" + name + ">")
	}
	if top := p.open[len(p.open)-1].name; top != name {
		return p.syntax("element <" + top + "> closed by </" + name + ">")
	}
	p.closeElement()
	return nil
}

func (p *xmlParser) closeElement() {
	open := p.open[len(p.open)-1]
	p.open = p.open[:len(p.open)-1]
	if open.pathLen >= 0 {
		p.scopes = p.scopes[:len(p.scopes)-1]
		p.path = p.path[:open.pathLen]
	}
	if p.skip > len(p.open) {
		p.skip = 0
	}
}

// procInst skips a processing instruction. An <?xml ...?> declaration
// must not name a version other than 1.0 or an encoding other than UTF-8.
func (p *xmlParser) procInst() error {
	target, ok, err := p.name()
	if err != nil {
		return err
	}
	if !ok {
		return p.syntax("expected target name after <?")
	}
	p.space()
	end := strings.Index(p.s[p.pos:], "?>")
	if end < 0 {
		p.pos = len(p.s)
		return p.eof()
	}
	content := p.s[p.pos : p.pos+end]
	p.pos += end + 2
	if target == "xml" {
		if v := xmlDeclParam("version=", content); v != "" && v != "1.0" {
			return p.syntax(fmt.Sprintf("unsupported version %q; only version 1.0 is supported", v))
		}
		if e := xmlDeclParam("encoding=", content); e != "" && !strings.EqualFold(e, "utf-8") {
			return p.syntax(fmt.Sprintf("unsupported encoding %q; only UTF-8 is supported", e))
		}
	}
	return nil
}

// xmlDeclParam returns the value of param (ending in '=') in a
// declaration's content the way encoding/xml reads it: from the first
// occurrence of param that is followed by a quote, up to the matching
// quote.
func xmlDeclParam(param, s string) string {
	for {
		k := strings.Index(s, param)
		if k < 0 || k+len(param) >= len(s) {
			return ""
		}
		q := s[k+len(param)]
		s = s[k+len(param)+1:]
		if q == '"' || q == '\'' {
			if j := strings.IndexByte(s, q); j >= 0 {
				return s[:j]
			}
			return ""
		}
	}
}

// bang skips what follows "<!": a comment, a CDATA section (whose
// characters are checked) or a directive such as <!DOCTYPE ...>.
func (p *xmlParser) bang() error {
	c, err := p.next()
	if err != nil {
		return err
	}
	switch c {
	case '-':
		if err := p.expect('-', "invalid sequence <!- not part of <!--"); err != nil {
			return err
		}
		end := strings.Index(p.s[p.pos:], "--")
		if end < 0 || p.pos+end+2 >= len(p.s) {
			p.pos = len(p.s)
			return p.eof()
		}
		p.pos += end + 2
		if p.s[p.pos] != '>' {
			return p.syntax(`invalid sequence "--" not allowed in comments`)
		}
		p.pos++
		return nil
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			if err := p.expect("CDATA["[i], "invalid <![ sequence"); err != nil {
				return err
			}
		}
		end := strings.Index(p.s[p.pos:], "]]>")
		if end < 0 {
			p.pos = len(p.s)
			return p.syntax("unexpected EOF in CDATA section")
		}
		for i := p.pos; i < p.pos+end; {
			n := xmlCharLen(p.s, i)
			if n == 0 {
				p.pos = i
				return p.syntax("illegal character")
			}
			i += n
		}
		p.pos += end + 3
		return nil
	}
	return p.directive()
}

// directive skips the rest of a directive whose first byte was consumed:
// quotes hide '<' and '>', other '<'...'>' pairs nest, and <!-- -->
// comments are skipped whole.
func (p *xmlParser) directive() error {
	var quote byte
	depth := 0
	for {
		c, err := p.next()
		if err != nil {
			return err
		}
		if quote == 0 && c == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case c == quote:
			quote = 0
		case quote != 0:
		case c == '\'' || c == '"':
			quote = c
		case c == '>':
			depth--
		case c == '<':
			for i := 0; i < len("!--"); i++ {
				if c, err = p.next(); err != nil {
					return err
				}
				if c != "!--"[i] {
					depth++
					goto handle
				}
			}
			end := strings.Index(p.s[p.pos:], "-->")
			if end < 0 {
				p.pos = len(p.s)
				return p.eof()
			}
			p.pos += end + 3
		}
	}
}

// text scans character data up to the next '<' (quote == 0) or an
// attribute value up to its closing quote. Entity references must be
// well formed and predefined or numeric, "]]>" may not appear in
// character data, and every character must be in the XML Char range. It
// returns the raw text and whether it needs unescapeXML.
func (p *xmlParser) text(quote byte) (raw string, escaped bool, err error) {
	s, start := p.s, p.pos
	for i := start; i < len(s); {
		c := s[i]
		if c >= 0x20 && c < utf8.RuneSelf && c != '<' && c != '&' && c != ']' && c != quote {
			i++
			continue
		}
		switch {
		case c == quote && quote != 0:
			p.pos = i + 1
			return s[start:i], escaped, nil
		case c == '<':
			p.pos = i
			if quote != 0 {
				return "", false, p.syntax("unescaped < inside quoted string")
			}
			return s[start:i], escaped, nil
		case c == '&':
			_, n, msg := xmlEntity(s, i)
			if msg != "" {
				p.pos = i
				return "", false, p.syntax(msg)
			}
			escaped = true
			i += n
			continue
		case c == ']':
			if quote == 0 && strings.HasPrefix(s[i:], "]]>") {
				p.pos = i
				return "", false, p.syntax("unescaped ]]> not in CDATA section")
			}
		case c == '\r':
			escaped = true
		}
		n := xmlCharLen(s, i)
		if n == 0 {
			p.pos = i
			return "", false, p.syntax("illegal character")
		}
		i += n
	}
	p.pos = len(s)
	if quote != 0 {
		return "", false, p.eof()
	}
	return s[start:], escaped, nil
}

// xmlCharLen returns the length of the character at s[i], or 0 if it is
// invalid UTF-8 or outside the XML Char range.
func xmlCharLen(s string, i int) int {
	if c := s[i]; c < utf8.RuneSelf {
		if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
			return 0
		}
		return 1
	}
	r, n := utf8.DecodeRuneInString(s[i:])
	if r == utf8.RuneError && n == 1 || !isXMLChar(r) {
		return 0
	}
	return n
}

func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

var xmlEntities = [...]struct {
	ref string
	r   rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

// xmlEntity decodes the entity reference at s[i] ('&'), returning its
// character and length, or a syntax error message.
func xmlEntity(s string, i int) (rune, int, string) {
	ref := s[i+1:]
	for _, e := range xmlEntities {
		if strings.HasPrefix(ref, e.ref) {
			return e.r, len(e.ref) + 1, ""
		}
	}
	if strings.HasPrefix(ref, "#") {
		j, base := 1, rune(10)
		if j < len(ref) && ref[j] == 'x' {
			j, base = 2, 16
		}
		digits := j
		var n rune
		for ; j < len(ref); j++ {
			d := rune(strings.IndexByte("0123456789abcdefABCDEF", ref[j]))
			if d >= 16 {
				d -= 6
			}
			if d < 0 || d >= base {
				break
			}
			if n <= unicode.MaxRune {
				n = n*base + d
			}
		}
		if j > digits && j < len(ref) && ref[j] == ';' && n <= unicode.MaxRune {
			if !utf8.ValidRune(n) {
				n = utf8.RuneError // a surrogate decodes to U+FFFD
			}
			if !isXMLChar(n) {
				return 0, 0, fmt.Sprintf("illegal character code %U", n)
			}
			return n, j + 2, ""
		}
	}
	return 0, 0, "invalid character entity"
}

// unescapeXML decodes the entity references in text already checked by
// xmlParser.text and normalizes its line ends ("\r\n" and "\r" to "\n").
func unescapeXML(raw string) string {
	var b strings.Builder
	b.Grow(len(raw))
	cr := false
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case c == '&':
			r, n, _ := xmlEntity(raw, i)
			b.WriteRune(r)
			i += n - 1
			cr = false
			continue
		case c == '\r':
			b.WriteByte('\n')
		case c != '\n' || !cr:
			b.WriteByte(c)
		}
		cr = c == '\r'
	}
	return b.String()
}

// qname reads a qualified name and returns it as written and its local
// part: one colon with text on both sides separates a prefix, and a name
// with more than one colon is rejected.
func (p *xmlParser) qname(what string) (name, local string, err error) {
	name, ok, err := p.name()
	if err != nil {
		return "", "", err
	}
	if !ok || strings.Count(name, ":") > 1 {
		return "", "", p.syntax("expected " + what)
	}
	local = name
	if i := strings.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
		local = name[i+1:]
	}
	return name, local, nil
}

// name reads an XML name; ok is false, with no error, when the input
// does not start with one.
func (p *xmlParser) name() (name string, ok bool, err error) {
	s, i := p.s, p.pos
	if i >= len(s) {
		return "", false, p.eof()
	}
	if c := s[i]; c < utf8.RuneSelf && !isNameByte(c) {
		return "", false, nil
	}
	for i < len(s) && (s[i] >= utf8.RuneSelf || isNameByte(s[i])) {
		i++
	}
	name, p.pos = s[p.pos:i], i
	if i == len(s) {
		return "", false, p.eof()
	}
	if !isXMLName(name) {
		return "", false, p.syntax("invalid XML name: " + name)
	}
	return name, true, nil
}

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

// isXMLName reports whether s is a Name of XML 1.0 (first edition).
func isXMLName(s string) bool {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if !isNameByte(c) || i == 0 && ('0' <= c && c <= '9' || c == '.' || c == '-') {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 ||
			!unicode.Is(xmlNameStart, r) && (i == 0 || !unicode.Is(xmlNameChar, r)) {
			return false
		}
		i += n
	}
	return s != ""
}

func (p *xmlParser) space() {
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

// next consumes one byte inside markup, where the input may not end.
func (p *xmlParser) next() (byte, error) {
	if p.pos >= len(p.s) {
		return 0, p.eof()
	}
	p.pos++
	return p.s[p.pos-1], nil
}

// expect consumes one byte inside markup, which must be want.
func (p *xmlParser) expect(want byte, msg string) error {
	c, err := p.next()
	if err == nil && c != want {
		err = p.syntax(msg)
	}
	return err
}

func (p *xmlParser) eof() error { return p.syntax("unexpected EOF") }

func (p *xmlParser) syntax(msg string) error {
	line := 1 + strings.Count(p.s[:p.pos], "\n")
	return fmt.Errorf("xml: syntax error on line %d: %s", line, msg)
}

// xmlNameStart and xmlNameChar are the name characters of XML 1.0
// (first edition) Appendix B, as encoding/xml checks them: a name
// starts with an xmlNameStart character, and each further character is
// an xmlNameStart or an xmlNameChar one.
var xmlNameStart = &unicode.RangeTable{R16: []unicode.Range16{
	{0x003A, 0x003A, 1}, {0x0041, 0x005A, 1}, {0x005F, 0x005F, 1}, {0x0061, 0x007A, 1}, {0x00C0, 0x00D6, 1},
	{0x00D8, 0x00F6, 1}, {0x00F8, 0x0131, 1}, {0x0134, 0x013E, 1}, {0x0141, 0x0148, 1}, {0x014A, 0x017E, 1},
	{0x0180, 0x01C3, 1}, {0x01CD, 0x01F0, 1}, {0x01F4, 0x01F5, 1}, {0x01FA, 0x0217, 1}, {0x0250, 0x02A8, 1},
	{0x02BB, 0x02C1, 1}, {0x0386, 0x0386, 1}, {0x0388, 0x038A, 1}, {0x038C, 0x038C, 1}, {0x038E, 0x03A1, 1},
	{0x03A3, 0x03CE, 1}, {0x03D0, 0x03D6, 1}, {0x03DA, 0x03DA, 1}, {0x03DC, 0x03DC, 1}, {0x03DE, 0x03DE, 1},
	{0x03E0, 0x03E0, 1}, {0x03E2, 0x03F3, 1}, {0x0401, 0x040C, 1}, {0x040E, 0x044F, 1}, {0x0451, 0x045C, 1},
	{0x045E, 0x0481, 1}, {0x0490, 0x04C4, 1}, {0x04C7, 0x04C8, 1}, {0x04CB, 0x04CC, 1}, {0x04D0, 0x04EB, 1},
	{0x04EE, 0x04F5, 1}, {0x04F8, 0x04F9, 1}, {0x0531, 0x0556, 1}, {0x0559, 0x0559, 1}, {0x0561, 0x0586, 1},
	{0x05D0, 0x05EA, 1}, {0x05F0, 0x05F2, 1}, {0x0621, 0x063A, 1}, {0x0641, 0x064A, 1}, {0x0671, 0x06B7, 1},
	{0x06BA, 0x06BE, 1}, {0x06C0, 0x06CE, 1}, {0x06D0, 0x06D3, 1}, {0x06D5, 0x06D5, 1}, {0x06E5, 0x06E6, 1},
	{0x0905, 0x0939, 1}, {0x093D, 0x093D, 1}, {0x0958, 0x0961, 1}, {0x0985, 0x098C, 1}, {0x098F, 0x0990, 1},
	{0x0993, 0x09A8, 1}, {0x09AA, 0x09B0, 1}, {0x09B2, 0x09B2, 1}, {0x09B6, 0x09B9, 1}, {0x09DC, 0x09DD, 1},
	{0x09DF, 0x09E1, 1}, {0x09F0, 0x09F1, 1}, {0x0A05, 0x0A0A, 1}, {0x0A0F, 0x0A10, 1}, {0x0A13, 0x0A28, 1},
	{0x0A2A, 0x0A30, 1}, {0x0A32, 0x0A33, 1}, {0x0A35, 0x0A36, 1}, {0x0A38, 0x0A39, 1}, {0x0A59, 0x0A5C, 1},
	{0x0A5E, 0x0A5E, 1}, {0x0A72, 0x0A74, 1}, {0x0A85, 0x0A8B, 1}, {0x0A8D, 0x0A8D, 1}, {0x0A8F, 0x0A91, 1},
	{0x0A93, 0x0AA8, 1}, {0x0AAA, 0x0AB0, 1}, {0x0AB2, 0x0AB3, 1}, {0x0AB5, 0x0AB9, 1}, {0x0ABD, 0x0ABD, 1},
	{0x0AE0, 0x0AE0, 1}, {0x0B05, 0x0B0C, 1}, {0x0B0F, 0x0B10, 1}, {0x0B13, 0x0B28, 1}, {0x0B2A, 0x0B30, 1},
	{0x0B32, 0x0B33, 1}, {0x0B36, 0x0B39, 1}, {0x0B3D, 0x0B3D, 1}, {0x0B5C, 0x0B5D, 1}, {0x0B5F, 0x0B61, 1},
	{0x0B85, 0x0B8A, 1}, {0x0B8E, 0x0B90, 1}, {0x0B92, 0x0B95, 1}, {0x0B99, 0x0B9A, 1}, {0x0B9C, 0x0B9C, 1},
	{0x0B9E, 0x0B9F, 1}, {0x0BA3, 0x0BA4, 1}, {0x0BA8, 0x0BAA, 1}, {0x0BAE, 0x0BB5, 1}, {0x0BB7, 0x0BB9, 1},
	{0x0C05, 0x0C0C, 1}, {0x0C0E, 0x0C10, 1}, {0x0C12, 0x0C28, 1}, {0x0C2A, 0x0C33, 1}, {0x0C35, 0x0C39, 1},
	{0x0C60, 0x0C61, 1}, {0x0C85, 0x0C8C, 1}, {0x0C8E, 0x0C90, 1}, {0x0C92, 0x0CA8, 1}, {0x0CAA, 0x0CB3, 1},
	{0x0CB5, 0x0CB9, 1}, {0x0CDE, 0x0CDE, 1}, {0x0CE0, 0x0CE1, 1}, {0x0D05, 0x0D0C, 1}, {0x0D0E, 0x0D10, 1},
	{0x0D12, 0x0D28, 1}, {0x0D2A, 0x0D39, 1}, {0x0D60, 0x0D61, 1}, {0x0E01, 0x0E2E, 1}, {0x0E30, 0x0E30, 1},
	{0x0E32, 0x0E33, 1}, {0x0E40, 0x0E45, 1}, {0x0E81, 0x0E82, 1}, {0x0E84, 0x0E84, 1}, {0x0E87, 0x0E88, 1},
	{0x0E8A, 0x0E8A, 1}, {0x0E8D, 0x0E8D, 1}, {0x0E94, 0x0E97, 1}, {0x0E99, 0x0E9F, 1}, {0x0EA1, 0x0EA3, 1},
	{0x0EA5, 0x0EA5, 1}, {0x0EA7, 0x0EA7, 1}, {0x0EAA, 0x0EAB, 1}, {0x0EAD, 0x0EAE, 1}, {0x0EB0, 0x0EB0, 1},
	{0x0EB2, 0x0EB3, 1}, {0x0EBD, 0x0EBD, 1}, {0x0EC0, 0x0EC4, 1}, {0x0F40, 0x0F47, 1}, {0x0F49, 0x0F69, 1},
	{0x10A0, 0x10C5, 1}, {0x10D0, 0x10F6, 1}, {0x1100, 0x1100, 1}, {0x1102, 0x1103, 1}, {0x1105, 0x1107, 1},
	{0x1109, 0x1109, 1}, {0x110B, 0x110C, 1}, {0x110E, 0x1112, 1}, {0x113C, 0x113C, 1}, {0x113E, 0x113E, 1},
	{0x1140, 0x1140, 1}, {0x114C, 0x114C, 1}, {0x114E, 0x114E, 1}, {0x1150, 0x1150, 1}, {0x1154, 0x1155, 1},
	{0x1159, 0x1159, 1}, {0x115F, 0x1161, 1}, {0x1163, 0x1163, 1}, {0x1165, 0x1165, 1}, {0x1167, 0x1167, 1},
	{0x1169, 0x1169, 1}, {0x116D, 0x116E, 1}, {0x1172, 0x1173, 1}, {0x1175, 0x1175, 1}, {0x119E, 0x119E, 1},
	{0x11A8, 0x11A8, 1}, {0x11AB, 0x11AB, 1}, {0x11AE, 0x11AF, 1}, {0x11B7, 0x11B8, 1}, {0x11BA, 0x11BA, 1},
	{0x11BC, 0x11C2, 1}, {0x11EB, 0x11EB, 1}, {0x11F0, 0x11F0, 1}, {0x11F9, 0x11F9, 1}, {0x1E00, 0x1E9B, 1},
	{0x1EA0, 0x1EF9, 1}, {0x1F00, 0x1F15, 1}, {0x1F18, 0x1F1D, 1}, {0x1F20, 0x1F45, 1}, {0x1F48, 0x1F4D, 1},
	{0x1F50, 0x1F57, 1}, {0x1F59, 0x1F59, 1}, {0x1F5B, 0x1F5B, 1}, {0x1F5D, 0x1F5D, 1}, {0x1F5F, 0x1F7D, 1},
	{0x1F80, 0x1FB4, 1}, {0x1FB6, 0x1FBC, 1}, {0x1FBE, 0x1FBE, 1}, {0x1FC2, 0x1FC4, 1}, {0x1FC6, 0x1FCC, 1},
	{0x1FD0, 0x1FD3, 1}, {0x1FD6, 0x1FDB, 1}, {0x1FE0, 0x1FEC, 1}, {0x1FF2, 0x1FF4, 1}, {0x1FF6, 0x1FFC, 1},
	{0x2126, 0x2126, 1}, {0x212A, 0x212B, 1}, {0x212E, 0x212E, 1}, {0x2180, 0x2182, 1}, {0x3007, 0x3007, 1},
	{0x3021, 0x3029, 1}, {0x3041, 0x3094, 1}, {0x30A1, 0x30FA, 1}, {0x3105, 0x312C, 1}, {0x4E00, 0x9FA5, 1},
	{0xAC00, 0xD7A3, 1},
}}
var xmlNameChar = &unicode.RangeTable{R16: []unicode.Range16{
	{0x002D, 0x002E, 1}, {0x0030, 0x0039, 1}, {0x00B7, 0x00B7, 1}, {0x02D0, 0x02D1, 1}, {0x0300, 0x0345, 1},
	{0x0360, 0x0361, 1}, {0x0387, 0x0387, 1}, {0x0483, 0x0486, 1}, {0x0591, 0x05A1, 1}, {0x05A3, 0x05B9, 1},
	{0x05BB, 0x05BD, 1}, {0x05BF, 0x05BF, 1}, {0x05C1, 0x05C2, 1}, {0x05C4, 0x05C4, 1}, {0x0640, 0x0640, 1},
	{0x064B, 0x0652, 1}, {0x0660, 0x0669, 1}, {0x0670, 0x0670, 1}, {0x06D6, 0x06E4, 1}, {0x06E7, 0x06E8, 1},
	{0x06EA, 0x06ED, 1}, {0x06F0, 0x06F9, 1}, {0x0901, 0x0903, 1}, {0x093C, 0x093C, 1}, {0x093E, 0x094D, 1},
	{0x0951, 0x0954, 1}, {0x0962, 0x0963, 1}, {0x0966, 0x096F, 1}, {0x0981, 0x0983, 1}, {0x09BC, 0x09BC, 1},
	{0x09BE, 0x09C4, 1}, {0x09C7, 0x09C8, 1}, {0x09CB, 0x09CD, 1}, {0x09D7, 0x09D7, 1}, {0x09E2, 0x09E3, 1},
	{0x09E6, 0x09EF, 1}, {0x0A02, 0x0A02, 1}, {0x0A3C, 0x0A3C, 1}, {0x0A3E, 0x0A42, 1}, {0x0A47, 0x0A48, 1},
	{0x0A4B, 0x0A4D, 1}, {0x0A66, 0x0A71, 1}, {0x0A81, 0x0A83, 1}, {0x0ABC, 0x0ABC, 1}, {0x0ABE, 0x0AC5, 1},
	{0x0AC7, 0x0AC9, 1}, {0x0ACB, 0x0ACD, 1}, {0x0AE6, 0x0AEF, 1}, {0x0B01, 0x0B03, 1}, {0x0B3C, 0x0B3C, 1},
	{0x0B3E, 0x0B43, 1}, {0x0B47, 0x0B48, 1}, {0x0B4B, 0x0B4D, 1}, {0x0B56, 0x0B57, 1}, {0x0B66, 0x0B6F, 1},
	{0x0B82, 0x0B83, 1}, {0x0BBE, 0x0BC2, 1}, {0x0BC6, 0x0BC8, 1}, {0x0BCA, 0x0BCD, 1}, {0x0BD7, 0x0BD7, 1},
	{0x0BE7, 0x0BEF, 1}, {0x0C01, 0x0C03, 1}, {0x0C3E, 0x0C44, 1}, {0x0C46, 0x0C48, 1}, {0x0C4A, 0x0C4D, 1},
	{0x0C55, 0x0C56, 1}, {0x0C66, 0x0C6F, 1}, {0x0C82, 0x0C83, 1}, {0x0CBE, 0x0CC4, 1}, {0x0CC6, 0x0CC8, 1},
	{0x0CCA, 0x0CCD, 1}, {0x0CD5, 0x0CD6, 1}, {0x0CE6, 0x0CEF, 1}, {0x0D02, 0x0D03, 1}, {0x0D3E, 0x0D43, 1},
	{0x0D46, 0x0D48, 1}, {0x0D4A, 0x0D4D, 1}, {0x0D57, 0x0D57, 1}, {0x0D66, 0x0D6F, 1}, {0x0E31, 0x0E31, 1},
	{0x0E34, 0x0E3A, 1}, {0x0E46, 0x0E4E, 1}, {0x0E50, 0x0E59, 1}, {0x0EB1, 0x0EB1, 1}, {0x0EB4, 0x0EB9, 1},
	{0x0EBB, 0x0EBC, 1}, {0x0EC6, 0x0EC6, 1}, {0x0EC8, 0x0ECD, 1}, {0x0ED0, 0x0ED9, 1}, {0x0F18, 0x0F19, 1},
	{0x0F20, 0x0F29, 1}, {0x0F35, 0x0F35, 1}, {0x0F37, 0x0F37, 1}, {0x0F39, 0x0F39, 1}, {0x0F3E, 0x0F3F, 1},
	{0x0F71, 0x0F84, 1}, {0x0F86, 0x0F8B, 1}, {0x0F90, 0x0F95, 1}, {0x0F97, 0x0F97, 1}, {0x0F99, 0x0FAD, 1},
	{0x0FB1, 0x0FB7, 1}, {0x0FB9, 0x0FB9, 1}, {0x20D0, 0x20DC, 1}, {0x20E1, 0x20E1, 1}, {0x3005, 0x3005, 1},
	{0x302A, 0x302F, 1}, {0x3031, 0x3035, 1}, {0x3099, 0x309A, 1}, {0x309D, 0x309E, 1}, {0x30FC, 0x30FE, 1},
}}
