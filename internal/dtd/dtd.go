// Package dtd parses Document Type Definitions into abstract XML schemas.
// A DTD is the special case of an abstract XML schema in which every
// element label has one type regardless of context (EDBT'04 §3), which is
// what enables the §3.4 label-index optimization.
//
// Supported declarations:
//
//	<!ELEMENT name EMPTY>            — empty content model
//	<!ELEMENT name ANY>              — any sequence of declared elements
//	<!ELEMENT name (#PCDATA)>        — simple (text) content
//	<!ELEMENT name (a, (b | c)*, d?)> — element content (full regex syntax)
//	<!ATTLIST ...>                   — parsed and recorded, not validated
//	<!ENTITY ...>, <!NOTATION ...>   — skipped
//	<!DOCTYPE root [ ... ]>          — optional wrapper fixing the root
//
// Mixed content other than pure (#PCDATA) — e.g. (#PCDATA | b)* — is not
// representable in the paper's tree model (χ leaves cannot interleave with
// elements) and is rejected with a descriptive error.
package dtd

import (
	"fmt"
	"strings"

	"repro/internal/fa"
	"repro/internal/regexpsym"
	"repro/internal/schema"
)

// Options configure DTD loading.
type Options struct {
	// Alpha, when non-nil, is the shared alphabet to intern labels into
	// (required when the schema will be compared against another).
	Alpha *fa.Alphabet
	// Models, when non-nil, supplies already-compiled content models
	// (schema.CompileWith); the loaded schema is the same either way.
	Models *schema.ModelTable
	// Root restricts R to a single root element. When empty and the input
	// has a <!DOCTYPE root …> wrapper, that root is used; otherwise every
	// declared element is a permitted root.
	Root string
}

// Parse parses DTD text into a compiled abstract XML schema.
func Parse(src string, opts Options) (*schema.Schema, error) {
	p := &parser{src: src}
	decls, doctypeRoot, err := p.parse()
	if err != nil {
		return nil, err
	}
	if len(decls) == 0 {
		return nil, fmt.Errorf("dtd: no element declarations found")
	}
	root := opts.Root
	if root == "" {
		root = doctypeRoot
	}
	return build(decls, root, opts.Alpha, opts.Models)
}

// MustParse is Parse that panics on error; for tests and fixtures.
func MustParse(src string, opts Options) *schema.Schema {
	s, err := Parse(src, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// elementDecl is one parsed <!ELEMENT> declaration.
type elementDecl struct {
	name    string
	kind    contentKind
	content regexpsym.Node // for kindChildren
}

type contentKind uint8

const (
	kindEmpty contentKind = iota
	kindAny
	kindPCDATA
	kindChildren
)

// build converts declarations into an abstract XML schema: one complex or
// simple type per element label, named after the label.
func build(decls []elementDecl, root string, alpha *fa.Alphabet, models *schema.ModelTable) (*schema.Schema, error) {
	s := schema.New(alpha)
	byName := map[string]elementDecl{}
	var order []string
	for _, d := range decls {
		if _, dup := byName[d.name]; dup {
			return nil, fmt.Errorf("dtd: element %q declared twice", d.name)
		}
		byName[d.name] = d
		order = append(order, d.name)
	}

	// First pass: declare a type per element.
	ids := map[string]schema.TypeID{}
	for _, name := range order {
		d := byName[name]
		var (
			id  schema.TypeID
			err error
		)
		switch d.kind {
		case kindPCDATA:
			id, err = s.AddSimpleType(name, schema.NewSimpleType(schema.StringKind))
		case kindEmpty:
			id, err = s.AddComplexType(name, regexpsym.Epsilon{})
		case kindAny:
			// ANY: any sequence of declared elements. (Text in ANY content
			// is outside the tree model; element-only ANY is the useful
			// core.)
			alts := make([]regexpsym.Node, 0, len(order))
			for _, l := range order {
				alts = append(alts, regexpsym.Lbl(l))
			}
			id, err = s.AddComplexType(name, regexpsym.Star(regexpsym.Or(alts...)))
		case kindChildren:
			id, err = s.AddComplexType(name, d.content)
		}
		if err != nil {
			return nil, fmt.Errorf("dtd: %w", err)
		}
		ids[name] = id
	}

	// Second pass: wire child types (every label maps to its own type).
	for _, name := range order {
		d := byName[name]
		if d.kind == kindPCDATA {
			continue
		}
		t := s.TypeOf(ids[name])
		var labels []string
		if d.kind == kindAny {
			labels = order
		} else if d.kind == kindChildren {
			labels = regexpsym.Labels(d.content)
		}
		for _, l := range labels {
			child, ok := ids[l]
			if !ok {
				return nil, fmt.Errorf("dtd: element %q references undeclared element %q", name, l)
			}
			if err := s.SetChildType(t.ID, l, child); err != nil {
				return nil, fmt.Errorf("dtd: %w", err)
			}
		}
	}

	// Roots.
	if root != "" {
		id, ok := ids[root]
		if !ok {
			return nil, fmt.Errorf("dtd: root element %q is not declared", root)
		}
		s.SetRoot(root, id)
	} else {
		for _, name := range order {
			s.SetRoot(name, ids[name])
		}
	}
	if err := s.CompileWith(models); err != nil {
		return nil, fmt.Errorf("dtd: %w", err)
	}
	return s, nil
}

// parser is a hand-written scanner over DTD text.
type parser struct {
	src string
	pos int
}

func (p *parser) parse() (decls []elementDecl, doctypeRoot string, err error) {
	for {
		p.skipSpaceAndComments()
		if p.eof() {
			return decls, doctypeRoot, nil
		}
		switch {
		case p.consume("<!ELEMENT"):
			d, err := p.elementDecl()
			if err != nil {
				return nil, "", err
			}
			decls = append(decls, d)
		case p.consume("<!ATTLIST"):
			if err := p.skipDecl(); err != nil {
				return nil, "", err
			}
		case p.consume("<!ENTITY"), p.consume("<!NOTATION"):
			if err := p.skipDecl(); err != nil {
				return nil, "", err
			}
		case p.consume("<!DOCTYPE"):
			name, err := p.doctype()
			if err != nil {
				return nil, "", err
			}
			doctypeRoot = name
		case p.consume("<?"):
			// processing instruction / xml decl inside the subset
			if idx := strings.Index(p.src[p.pos:], "?>"); idx >= 0 {
				p.pos += idx + 2
			} else {
				return nil, "", p.errorf("unterminated processing instruction")
			}
		case p.consume("]"):
			// end of an internal subset; the '>' of the DOCTYPE follows
			p.skipSpaceAndComments()
			if !p.consume(">") {
				return nil, "", p.errorf("expected '>' after ']'")
			}
		default:
			return nil, "", p.errorf("unexpected input %q", p.peekSnippet())
		}
	}
}

// doctype parses "<!DOCTYPE name [" (internal subset continues) or
// "<!DOCTYPE name SYSTEM "uri" [" etc. Declarations after '[' are parsed by
// the main loop; a DOCTYPE without a subset ends at '>'.
func (p *parser) doctype() (string, error) {
	p.skipSpaceAndComments()
	name, err := p.name()
	if err != nil {
		return "", err
	}
	for {
		p.skipSpaceAndComments()
		if p.eof() {
			return "", p.errorf("unterminated DOCTYPE")
		}
		switch {
		case p.consume("["):
			return name, nil // subset declarations follow
		case p.consume(">"):
			return name, nil
		case p.consume("SYSTEM"), p.consume("PUBLIC"):
			// external identifiers: skip quoted strings
		case p.peek() == '"' || p.peek() == '\'':
			if err := p.skipQuoted(); err != nil {
				return "", err
			}
		default:
			return "", p.errorf("unexpected DOCTYPE content %q", p.peekSnippet())
		}
	}
}

func (p *parser) elementDecl() (elementDecl, error) {
	p.skipSpaceAndComments()
	name, err := p.name()
	if err != nil {
		return elementDecl{}, err
	}
	p.skipSpaceAndComments()
	start := p.pos
	depth := 0
	for {
		if p.eof() {
			return elementDecl{}, p.errorf("unterminated <!ELEMENT %s", name)
		}
		c := p.peek()
		if c == '(' {
			depth++
		}
		if c == ')' {
			depth--
		}
		if c == '>' && depth <= 0 {
			break
		}
		p.pos++
	}
	model := strings.TrimSpace(p.src[start:p.pos])
	p.pos++ // consume '>'

	switch {
	case model == "EMPTY":
		return elementDecl{name: name, kind: kindEmpty}, nil
	case model == "ANY":
		return elementDecl{name: name, kind: kindAny}, nil
	case strings.Contains(model, "#PCDATA"):
		inner := strings.TrimSuffix(strings.TrimSpace(model), "*")
		inner = strings.TrimSpace(inner)
		inner = strings.TrimPrefix(inner, "(")
		inner = strings.TrimSuffix(inner, ")")
		parts := strings.Split(inner, "|")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		if len(parts) == 1 && parts[0] == "#PCDATA" {
			return elementDecl{name: name, kind: kindPCDATA}, nil
		}
		return elementDecl{}, p.errorf(
			"element %q has mixed content %q: mixed element/text content is outside the paper's tree model", name, model)
	default:
		node, err := regexpsym.Parse(model)
		if err != nil {
			return elementDecl{}, fmt.Errorf("dtd: element %q content model: %w", name, err)
		}
		return elementDecl{name: name, kind: kindChildren, content: node}, nil
	}
}

// skipDecl skips to the closing '>' of a declaration, honouring quotes.
func (p *parser) skipDecl() error {
	for {
		if p.eof() {
			return p.errorf("unterminated declaration")
		}
		switch p.peek() {
		case '"', '\'':
			if err := p.skipQuoted(); err != nil {
				return err
			}
		case '>':
			p.pos++
			return nil
		default:
			p.pos++
		}
	}
}

func (p *parser) skipQuoted() error {
	quote := p.peek()
	p.pos++
	for !p.eof() {
		if p.peek() == quote {
			p.pos++
			return nil
		}
		p.pos++
	}
	return p.errorf("unterminated quoted string")
}

func (p *parser) skipSpaceAndComments() {
	for {
		for !p.eof() && isSpace(p.peek()) {
			p.pos++
		}
		if strings.HasPrefix(p.src[p.pos:], "<!--") {
			end := strings.Index(p.src[p.pos+4:], "-->")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += 4 + end + 3
			continue
		}
		return
	}
}

func (p *parser) name() (string, error) {
	start := p.pos
	for !p.eof() && isNameChar(p.peek()) {
		p.pos++
	}
	if start == p.pos {
		return "", p.errorf("expected a name")
	}
	return p.src[start:p.pos], nil
}

func (p *parser) eof() bool  { return p.pos >= len(p.src) }
func (p *parser) peek() byte { return p.src[p.pos] }
func (p *parser) consume(s string) bool {
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *parser) peekSnippet() string {
	end := p.pos + 24
	if end > len(p.src) {
		end = len(p.src)
	}
	return p.src[p.pos:end]
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("dtd: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func isNameChar(c byte) bool {
	return c == '_' || c == ':' || c == '-' || c == '.' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
