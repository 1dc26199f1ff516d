package xmltree_test

import (
	"encoding/xml"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wgen"
	"repro/internal/xmltree"
)

// parseStd is the encoding/xml tree builder ParseWith replaced, kept as
// the oracle: ParseWith must accept exactly the documents it accepts and
// build identical trees from them.
func parseStd(r io.Reader, opts xmltree.ParseOptions) (*xmltree.Node, error) {
	dec := xml.NewDecoder(r)
	var root *xmltree.Node
	var stack []*xmltree.Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := xmltree.NewElement(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue // namespace declarations are not data
				}
				n.Attrs = append(n.Attrs, xmltree.Attr{Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, errors.New("xmltree: multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].AppendChild(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, errors.New("xmltree: unbalanced end element")
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue // whitespace or stray text outside the root
			}
			text := string(t)
			if !opts.KeepWhitespaceText && strings.TrimSpace(text) == "" {
				continue
			}
			parent := stack[len(stack)-1]
			// Coalesce adjacent text (the decoder may split CDATA).
			if k := len(parent.Children); k > 0 && parent.Children[k-1].Kind == xmltree.Text {
				parent.Children[k-1].Text += text
				continue
			}
			parent.AppendChild(xmltree.NewText(text))
		}
	}
	if root == nil {
		return nil, errors.New("xmltree: no root element")
	}
	if len(stack) != 0 {
		return nil, errors.New("xmltree: unexpected end of input")
	}
	return root, nil
}

// errClass buckets a parse error. The two tokenizers word their errors
// differently (and encoding/xml reports some, such as an unsupported xml
// declaration version, as plain errors), so a tokenizer error only counts
// as "malformed"; the tree builder's own errors must match exactly.
func errClass(err error) string {
	switch {
	case err == nil:
		return "accept"
	case err.Error() == "xmltree: multiple root elements", err.Error() == "xmltree: no root element":
		return err.Error()
	}
	return "malformed"
}

// repoXMLSeeds returns every raw string literal holding markup in the
// example programs and the XSD loader's tests: the schema documents the
// repository actually feeds the parser.
func repoXMLSeeds(tb testing.TB) []string {
	tb.Helper()
	var files []string
	for _, pat := range []string{"../../examples/*/*.go", "../xsd/*_test.go"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			tb.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		tb.Fatal("no seed sources found")
	}
	var out []string
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING || !strings.HasPrefix(lit.Value, "`") {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "<") {
				out = append(out, s)
			}
			return true
		})
	}
	return out
}

// grammarCorners is the stream package's tokenizer corpus plus the
// attribute and namespace corners only a tree builder sees.
var grammarCorners = []string{
	`<a>one<![CDATA[two]]>three</a>`,
	`<a><![CDATA[]]></a>`,
	`<a> <![CDATA[]]> </a>`,
	`<a><![CDATA[ <raw> ]]></a>`,
	`<a><![CDATA[no close`,
	`<a>&lt;&gt;&apos;&quot;&#xD800;</a>`,
	`<a>&amp;&#65;&#x42;</a>`,
	`<a>x<!-- c --> <?pi data?>y</a>`,
	`<?xml version="1.0" encoding="UTF-8"?><a/>`,
	`<!DOCTYPE a [<!-- inner --><!ENTITY e "x">]><a/>`,
	"\uFEFF<a/>",
	"<a/>\uFEFF",
	"\uFEFF<?xml version=\"1.0\"?><a/>",
	`<a/>trailing garbage`,
	`</a>`,
	`<a></a></a>`,
	`<a/><b/>`,
	`<a/><b>`,
	`<a b="&#34;" c='&#39;'/>`,
	"<a v=\"x\r\ny\rz\n\"/>",
	"<a>x\r\ny\rz</a>",
	`<a v="&#13;&#10;&#9;"/>`,
	`<x:a xmlns:x="urn:x" x:b="1" y:c="2" xml:lang="en"><x:d xmlns="urn:d" e="3"/></x:a>`,
	`<a xmlns="urn:x" xmlns:p="urn:y" p:q="v" p:xmlns="w"/>`,
	`<a xmlns:p="xmlns" p:q="dropped"><b p:r="dropped" xmlns:p="urn:z" p:s="kept"/><c p:t="dropped"/></a>`,
	`<a xmlns:xml="xmlns" xml:q="kept" xmlns:="x"/>`,
	`<a :b="1" c:="2" d::e="3"/>`,
	`<a b="1" b="2"/>`,
	`<a b = '1'	c="2"
	/>`,
	"<a>\u00a0\u2003</a>",
	`<a>  </a>`,
	"",
	"   ",
	"text only",
	"\xff\xfe\x00<not xml",
	`<a b="<"/>`,
	`<a b="]]>"/>`,
	strings.Repeat(`<a>`, 50),
	// Escaping corners: markup characters, controls, surrogates, invalid
	// UTF-8 and the edges of the XML character range.
	"\t\n\r\"'&<>",
	"\x00\x1f\x7f",
	"\xed\xa0\x80",
	"\uFFFD\xff",
	"\uFFFE\U0010FFFF",
}

// FuzzXMLTreeParse holds ParseWith to parseStd: the same accept/reject
// class and, on accepted inputs, identical trees with and without
// KeepWhitespaceText. Every input is also escaped by WriteXML and
// compared byte for byte with encoding/xml's EscapeText.
func FuzzXMLTreeParse(f *testing.F) {
	for _, s := range repoXMLSeeds(f) {
		f.Add([]byte(s))
	}
	for _, s := range []string{
		wgen.Figure2XSD(true, 100),
		wgen.Figure2XSD(false, 100),
		wgen.ScaledXSD(48, true, 100),
	} {
		f.Add([]byte(s))
	}
	for _, s := range grammarCorners {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, opts := range []xmltree.ParseOptions{{}, {KeepWhitespaceText: true}} {
			want, wantErr := parseStd(strings.NewReader(string(data)), opts)
			got, gotErr := xmltree.ParseWith(strings.NewReader(string(data)), opts)
			if wc, gc := errClass(wantErr), errClass(gotErr); wc != gc {
				t.Fatalf("%+v: encoding/xml builder %s (%v), xmlscan builder %s (%v)", opts, wc, wantErr, gc, gotErr)
			}
			if wantErr == nil && !xmltree.Equal(want, got) {
				t.Fatalf("%+v: trees differ\nencoding/xml: %s\nxmlscan:      %s", opts, dump(want), dump(got))
			}
		}
		checkEscape(t, string(data))
	})
}

// dump renders a tree with attributes and quoted text, for failure
// messages.
func dump(n *xmltree.Node) string {
	if n.Kind == xmltree.Text {
		return strconv.Quote(n.Text)
	}
	var b strings.Builder
	b.WriteString(n.Label)
	for _, a := range n.Attrs {
		fmt.Fprintf(&b, " %s=%q", a.Name, a.Value)
	}
	b.WriteString("(")
	for i, c := range n.Children {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(dump(c))
	}
	b.WriteString(")")
	return b.String()
}

// checkEscape requires WriteXML to escape s, as text and as an attribute
// value, byte-for-byte as encoding/xml's EscapeText does.
func checkEscape(t *testing.T, s string) {
	t.Helper()
	var esc strings.Builder
	if err := xml.EscapeText(&esc, []byte(s)); err != nil {
		t.Fatal(err)
	}
	n := xmltree.NewElement("a", xmltree.NewText(s))
	n.SetAttr("v", s)
	want := `<a v="` + esc.String() + `">` + esc.String() + `</a>`
	if got := xmltree.XMLString(n); got != want {
		t.Fatalf("escaping %q:\n got %q\nwant %q", s, got, want)
	}
}
