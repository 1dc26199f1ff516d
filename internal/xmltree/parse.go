package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"repro/internal/xmlscan"
)

// ParseOptions controls XML parsing.
type ParseOptions struct {
	// KeepWhitespaceText retains text nodes that consist solely of
	// whitespace. By default they are dropped: in element-only content
	// models, inter-element whitespace is insignificant, and the paper's
	// trees have χ leaves only for genuine simple values.
	KeepWhitespaceText bool
}

// Parse reads an XML document from r and returns the root element as an
// ordered labeled tree. Comments, processing instructions and directives
// are ignored; namespaces are flattened to local names (abstract XML
// schemas in this reproduction are namespace-free, as in the paper).
//
// The document is tokenized by internal/xmlscan, which accepts exactly
// what encoding/xml's strict decoder accepts; the tree is the one an
// encoding/xml token loop would build (FuzzXMLTreeParse holds the two to
// that).
func Parse(r io.Reader) (*Node, error) {
	return ParseWith(r, ParseOptions{})
}

// ParseWith is Parse with explicit options.
func ParseWith(r io.Reader, opts ParseOptions) (*Node, error) {
	s := xmlscan.Get(r)
	defer s.Release()
	s.KeepAttrs()
	b := builder{s: s, names: make([]string, 0, maxInterned)}
	for {
		ev, err := s.Next()
		if err != nil {
			return nil, fmt.Errorf("xmltree: %w", err)
		}
		switch ev {
		case xmlscan.EventEOF:
			if b.root == nil {
				return nil, errors.New("xmltree: no root element")
			}
			return b.root, nil
		case xmlscan.EventStart:
			if err := b.start(); err != nil {
				return nil, err
			}
		case xmlscan.EventEnd:
			b.ns = b.ns[:b.stack[len(b.stack)-1].ns]
			b.stack = b.stack[:len(b.stack)-1]
		case xmlscan.EventText:
			if len(b.stack) == 0 {
				continue // whitespace or stray text outside the root
			}
			text := s.Text()
			if !opts.KeepWhitespaceText && len(bytes.TrimSpace(text)) == 0 {
				continue
			}
			parent := b.stack[len(b.stack)-1].n
			// Coalesce adjacent text (text split by comments, PIs or CDATA).
			if k := len(parent.Children); k > 0 && parent.Children[k-1].Kind == Text {
				parent.Children[k-1].Text += string(text)
				continue
			}
			n := b.node()
			n.Kind, n.Text = Text, string(text)
			parent.AppendChild(n)
		}
	}
}

// Allocation batch sizes for one parse. maxInterned also bounds the names
// a parse interns.
const (
	nodeChunk   = 16
	attrChunk   = 32
	maxInterned = 32
)

// builder is the state of one parse.
type builder struct {
	s     *xmlscan.Scanner
	root  *Node
	stack []openElem
	ns    []nsDecl // xmlns:prefix declarations in scope, innermost last
	names []string // interned element and attribute names
	nodes []Node   // unused part of the current node chunk
	attrs []Attr   // unused part of the current attribute chunk
}

// openElem is one element on the parse stack, with the length the
// namespace-declaration stack had before the element opened.
type openElem struct {
	n  *Node
	ns int
}

// nsDecl is one xmlns:prefix declaration; toXMLNS records that it binds
// the prefix to the literal URI "xmlns".
type nsDecl struct {
	prefix  string
	toXMLNS bool
}

// node hands out a zero node. Nodes are allocated nodeChunk at a time: a
// parsed tree is built, kept and dropped as a whole.
func (b *builder) node() *Node {
	if len(b.nodes) == 0 {
		b.nodes = make([]Node, nodeChunk)
	}
	n := &b.nodes[0]
	b.nodes = b.nodes[1:]
	return n
}

// intern returns the string for a name. Documents, and schema documents
// above all, repeat a handful of names many times; a short linear scan is
// cheaper than allocating every occurrence.
func (b *builder) intern(name []byte) string {
	for _, s := range b.names {
		if s == string(name) {
			return s
		}
	}
	s := string(name)
	if len(b.names) < maxInterned {
		b.names = append(b.names, s)
	}
	return s
}

// start opens an element for the start tag the scanner just read.
func (b *builder) start() error {
	n := b.node()
	n.Kind, n.Label = Element, b.intern(b.s.Name())
	depth := len(b.ns)
	if b.s.NumAttr() > 0 {
		b.readAttrs(n)
	}
	if len(b.stack) == 0 {
		if b.root != nil {
			return errors.New("xmltree: multiple root elements")
		}
		b.root = n
	} else {
		b.stack[len(b.stack)-1].n.AppendChild(n)
	}
	b.stack = append(b.stack, openElem{n: n, ns: depth})
	return nil
}

// readAttrs copies the scanner's attributes for the start tag just read
// into n, under their local names, and pushes the tag's xmlns:prefix
// declarations. Namespace declarations are not data and are dropped:
// bare xmlns, any name whose local part is xmlns, and — as encoding/xml
// resolves prefixes before the caller sees them — any attribute whose
// prefix is xmlns or is bound to the URI "xmlns".
func (b *builder) readAttrs(n *Node) {
	s := b.s
	k := s.NumAttr()
	// Declarations on a tag apply to all of its attributes, so they are
	// pushed before any attribute is resolved.
	for i := 0; i < k; i++ {
		name, local, value := s.Attr(i)
		if local > 0 && string(name[:local-1]) == "xmlns" {
			b.ns = append(b.ns, nsDecl{prefix: string(name[local:]), toXMLNS: string(value) == "xmlns"})
		}
	}
	if len(b.attrs) < k {
		b.attrs = make([]Attr, max(k, attrChunk))
	}
	// The capacity bound makes a later SetAttr copy out of the chunk.
	n.Attrs = b.attrs[:0:k]
	b.attrs = b.attrs[k:]
	for i := 0; i < k; i++ {
		name, local, value := s.Attr(i)
		if string(name[local:]) == "xmlns" {
			continue
		}
		if local > 0 && boundToXMLNS(b.ns, name[:local-1]) {
			continue
		}
		n.Attrs = append(n.Attrs, Attr{Name: b.intern(name[local:]), Value: string(value)})
	}
}

// boundToXMLNS reports whether encoding/xml would resolve prefix to the
// namespace "xmlns". It leaves the xmlns prefix as is, maps xml to its
// fixed namespace, and otherwise takes the innermost declaration's URI,
// or leaves an undeclared prefix as is.
func boundToXMLNS(ns []nsDecl, prefix []byte) bool {
	switch string(prefix) {
	case "xmlns":
		return true
	case "xml":
		return false
	}
	for i := len(ns) - 1; i >= 0; i-- {
		if ns[i].prefix == string(prefix) {
			return ns[i].toXMLNS
		}
	}
	return false
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Node, error) {
	return Parse(strings.NewReader(s))
}

// MustParseString is ParseString that panics on error; for tests and
// embedded documents.
func MustParseString(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// WriteXML serializes the subtree rooted at n as XML text. Modifications
// are projected away first (DeltaDelete subtrees are skipped; other nodes
// serialize with their current labels/values), so the output is the
// document *after* edits. indent, if non-empty, pretty-prints with that
// unit (text-bearing elements stay on one line).
func WriteXML(w io.Writer, n *Node, indent string) error {
	sw := &stickyWriter{w: w}
	writeNode(sw, n, indent, 0)
	if indent != "" && sw.err == nil {
		sw.WriteString("\n")
	}
	return sw.err
}

// XMLString renders the subtree as an XML string (no indentation).
func XMLString(n *Node) string {
	var b strings.Builder
	_ = WriteXML(&b, n, "")
	return b.String()
}

type stickyWriter struct {
	w   io.Writer
	err error
}

func (s *stickyWriter) WriteString(str string) {
	if s.err != nil {
		return
	}
	_, s.err = io.WriteString(s.w, str)
}

func writeNode(w *stickyWriter, n *Node, indent string, depth int) {
	if n.Delta == DeltaDelete {
		return
	}
	pad := ""
	if indent != "" {
		if depth > 0 {
			pad = "\n" + strings.Repeat(indent, depth)
		}
		w.WriteString(pad)
	}
	if n.Kind == Text {
		escapeTo(w, n.Text)
		return
	}
	w.WriteString("<")
	w.WriteString(n.Label)
	for _, a := range n.Attrs {
		w.WriteString(" ")
		w.WriteString(a.Name)
		w.WriteString(`="`)
		escapeTo(w, a.Value)
		w.WriteString(`"`)
	}
	// Count serializable children.
	live := 0
	textOnly := true
	for _, c := range n.Children {
		if c.Delta == DeltaDelete {
			continue
		}
		live++
		if c.Kind != Text {
			textOnly = false
		}
	}
	if live == 0 {
		w.WriteString("/>")
		return
	}
	w.WriteString(">")
	if textOnly || indent == "" {
		for _, c := range n.Children {
			if c.Delta == DeltaDelete {
				continue
			}
			writeNode(w, c, "", 0)
		}
	} else {
		for _, c := range n.Children {
			writeNode(w, c, indent, depth+1)
		}
		w.WriteString("\n" + strings.Repeat(indent, depth))
	}
	w.WriteString("</")
	w.WriteString(n.Label)
	w.WriteString(">")
}

// Escapes for escapeTo, the same ones encoding/xml's EscapeText writes.
const (
	escQuot = "&#34;"
	escApos = "&#39;"
	escAmp  = "&amp;"
	escLT   = "&lt;"
	escGT   = "&gt;"
	escTab  = "&#x9;"
	escNL   = "&#xA;"
	escCR   = "&#xD;"
	escFFFD = "\uFFFD"
)

// escapeTo writes str escaped for use as element text or a quoted
// attribute value, byte-for-byte as encoding/xml's EscapeText would:
// the five markup characters, tab, newline and CR become character
// references, and invalid UTF-8 or runes outside the XML character range
// become U+FFFD.
func escapeTo(w *stickyWriter, str string) {
	last := 0
	for i := 0; i < len(str); {
		r, width := utf8.DecodeRuneInString(str[i:])
		i += width
		var esc string
		switch r {
		case '"':
			esc = escQuot
		case '\'':
			esc = escApos
		case '&':
			esc = escAmp
		case '<':
			esc = escLT
		case '>':
			esc = escGT
		case '\t':
			esc = escTab
		case '\n':
			esc = escNL
		case '\r':
			esc = escCR
		default:
			if !inCharRange(r) || r == utf8.RuneError && width == 1 {
				esc = escFFFD
				break
			}
			continue
		}
		w.WriteString(str[last : i-width])
		w.WriteString(esc)
		last = i
	}
	w.WriteString(str[last:])
}

// inCharRange reports whether r is in the XML 1.0 Char production.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
