package xmlscan

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// tokenize runs the scanner over doc and flattens the result: one
// "s:name"/"e:name" entry per element event, all text concatenated, and
// the terminal error (nil on clean EOF).
func tokenize(doc string) (events []string, text string, err error) {
	s := NewScanner(strings.NewReader(doc))
	var sb strings.Builder
	for {
		ev, err := s.Next()
		switch ev {
		case EventStart:
			events = append(events, "s:"+string(s.Name()))
		case EventEnd:
			events = append(events, "e:"+string(s.Name()))
		case EventText:
			sb.Write(s.Text())
		case EventEOF:
			return events, sb.String(), err
		}
	}
}

// tokenizeStd flattens an encoding/xml token stream the same way.
func tokenizeStd(doc string) (events []string, text string, err error) {
	dec := xml.NewDecoder(strings.NewReader(doc))
	var sb strings.Builder
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return events, sb.String(), nil
		}
		if err != nil {
			return events, sb.String(), err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			events = append(events, "s:"+t.Name.Local)
		case xml.EndElement:
			events = append(events, "e:"+t.Name.Local)
		case xml.CharData:
			sb.Write(t)
		}
	}
}

// differentialCases covers the grammar the scanner must agree with
// encoding/xml on: verdict, element events, and decoded text.
var differentialCases = []string{
	// Plain structure.
	`<a/>`,
	`<a></a>`,
	`<a><b/><c></c></a>`,
	`<a>text</a>`,
	`<root xmlns="http://x">ok</root>`,
	"  \n\t<a/>\n  ",
	// Attributes.
	`<a x="1" y='2'/>`,
	`<a x="a&amp;b"/>`,
	`<a x="tab&#9;end"/>`,
	`<a x="br]]>ok"/>`, // ]]> is legal inside quoted values
	`<a x = "spaced" />`,
	`<a x="multi
line"/>`,
	// Entities and character references.
	`<a>&lt;&gt;&amp;&apos;&quot;</a>`,
	`<a>&#65;&#x42;</a>`,
	`<a>&#xD800;</a>`, // surrogate ref decodes to U+FFFD, accepted
	`<a>&#0;</a>`,     // decodes to NUL, rejected by the char range
	`<a>&#x110000;</a>`,
	`<a>&bogus;</a>`,
	`<a>&lt</a>`,
	`<a>&;</a>`,
	`<a>&#;</a>`,
	`<a>&#xZZ;</a>`,
	// CDATA.
	`<a><![CDATA[<not><parsed>&amp;]]></a>`,
	`<a><![CDATA[]]></a>`,
	`<a><![CDATA[a]]b]]></a>`,
	`<a><![CDATA[unterminated</a>`,
	`<a><![CDAT[x]]></a>`,
	// Comments, PIs, directives.
	`<!-- c --><a/><!-- d -->`,
	`<a><!-- inner --></a>`,
	`<a><!-- -- --></a>`, // "--" inside a comment is malformed
	`<?xml version="1.0"?><a/>`,
	`<?xml version="1.0" encoding="UTF-8"?><a/>`,
	`<?xml version="2.0"?><a/>`,
	`<?xml encoding="latin1"?><a/>`,
	`<?pi anything ?'" here?><a/>`,
	`<!DOCTYPE doc [<!ELEMENT doc (#PCDATA)>]><doc/>`,
	`<!DOCTYPE doc [<!-- a > comment --> ]><doc/>`,
	`<!DOCTYPE d "un>balanced quotes"><d/>`,
	// Line endings and character range.
	"<a>line1\r\nline2\rline3</a>",
	"<a>ok\ttab</a>",
	"<a>bad\x01char</a>",
	"<a>bad\xffutf8</a>",
	"<a>\xc3\xa9</a>", // valid two-byte UTF-8
	// Namespace-shaped names.
	`<p:a></p:a>`,
	`<p:a></q:a>`,
	`<a:b:c/>`,
	`<:a/>`,
	`<a:/>`,
	// Malformed structure.
	`<a><b></a></b>`,
	`</a>`,
	`<a>`,
	`<a><b>`,
	`<a/><a/>`, // two roots: fine at token level
	`<a/>trailing`,
	`<a/>  `,
	`<a]]></a>`,
	`<a>]]></a>`,
	`<a x=1/>`,
	`<a x/>`,
	`<a x="unterminated></a>`,
	`<a x="lt<bad"/>`,
	`<1a/>`,
	`<a !></a>`,
	`<a`,
	`<`,
	``,
	`garbage only`,
	"\xff\xfe\x00<not xml",
}

func TestScannerMatchesEncodingXML(t *testing.T) {
	for _, doc := range differentialCases {
		ev, text, err := tokenize(doc)
		evStd, textStd, errStd := tokenizeStd(doc)
		if (err == nil) != (errStd == nil) {
			t.Errorf("%q: verdict mismatch: scanner err=%v, encoding/xml err=%v", doc, err, errStd)
			continue
		}
		if err != nil {
			continue // both rejected; messages are allowed to differ
		}
		if fmt.Sprint(ev) != fmt.Sprint(evStd) {
			t.Errorf("%q: events %v, want %v", doc, ev, evStd)
		}
		if text != textStd {
			t.Errorf("%q: text %q, want %q", doc, text, textStd)
		}
	}
}

func TestScannerSkipsLeadingBOM(t *testing.T) {
	ev, text, err := tokenize("\xef\xbb\xbf<a>x</a>")
	if err != nil {
		t.Fatalf("BOM document rejected: %v", err)
	}
	if fmt.Sprint(ev) != "[s:a e:a]" || text != "x" {
		t.Fatalf("BOM document tokenized as %v / %q", ev, text)
	}
	// Only the very first bytes are a BOM; elsewhere U+FEFF is text.
	_, text, err = tokenize("<a>\xef\xbb\xbfx</a>")
	if err != nil || text != "\uFEFFx" {
		t.Fatalf("interior BOM: text %q err %v", text, err)
	}
}

func TestScannerErrorsAreSyntaxErrors(t *testing.T) {
	for _, doc := range []string{`<a><b></a></b>`, `</a>`, `<a>&bogus;</a>`, `<a>`} {
		_, _, err := tokenize(doc)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%q: error %v is not a *SyntaxError", doc, err)
		}
	}
}

func TestScannerStickyError(t *testing.T) {
	s := NewScanner(strings.NewReader(`</a>`))
	_, err1 := s.Next()
	_, err2 := s.Next()
	if err1 == nil || err1 != err2 {
		t.Fatalf("sticky error broken: first %v, second %v", err1, err2)
	}
}

type errReader struct {
	data string
	err  error
	done bool
}

func (r *errReader) Read(p []byte) (int, error) {
	if r.done {
		return 0, r.err
	}
	r.done = true
	return copy(p, r.data), nil
}

func TestScannerSurfacesReaderError(t *testing.T) {
	boom := errors.New("boom")
	s := NewScanner(&errReader{data: `<a><b>text`, err: boom})
	for {
		_, err := s.Next()
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("reader error lost: got %v", err)
			}
			return
		}
	}
}

// advanceTo drives s until the start event for the named element.
func advanceTo(t *testing.T, s *Scanner, name string) {
	t.Helper()
	for {
		ev, err := s.Next()
		if err != nil || ev == EventEOF {
			t.Fatalf("never reached <%s>: ev=%v err=%v", name, ev, err)
		}
		if ev == EventStart && string(s.Name()) == name {
			return
		}
	}
}

func TestSkimSubtree(t *testing.T) {
	doc := `<r><keep>1</keep><skip a="v"><x><!-- c --><y>t</y><![CDATA[<raw>]]></x><z/></skip><after/></r>`
	s := NewScanner(strings.NewReader(doc))
	advanceTo(t, s, "skip")
	res, err := s.SkimSubtree(SkimLimits{BaseOpen: s.Depth()})
	if err != nil {
		t.Fatalf("skim: %v", err)
	}
	if !res.Done || res.Elements != 3 {
		t.Fatalf("skim result %+v, want Done with 3 elements (x, y, z)", res)
	}
	if res.MaxOpen != 4 { // r, skip, x, y
		t.Fatalf("skim MaxOpen %d, want 4", res.MaxOpen)
	}
	// The next event must be <after/> at depth 1.
	ev, err := s.Next()
	if err != nil || ev != EventStart || string(s.Name()) != "after" {
		t.Fatalf("after skim: ev=%v name=%q err=%v", ev, s.Name(), err)
	}
}

func TestSkimSubtreeSelfClosing(t *testing.T) {
	s := NewScanner(strings.NewReader(`<r><skip/><after/></r>`))
	advanceTo(t, s, "skip")
	res, err := s.SkimSubtree(SkimLimits{BaseOpen: s.Depth()})
	if err != nil || !res.Done || res.Elements != 0 {
		t.Fatalf("self-closing skim: %+v err=%v", res, err)
	}
	ev, err := s.Next()
	if err != nil || ev != EventStart || string(s.Name()) != "after" {
		t.Fatalf("after skim: ev=%v name=%q err=%v", ev, s.Name(), err)
	}
}

func TestSkimSubtreeChunked(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`<r><skip>`)
	for i := 0; i < 10; i++ {
		sb.WriteString(`<item x="1">v</item>`)
	}
	sb.WriteString(`</skip></r>`)
	s := NewScanner(strings.NewReader(sb.String()))
	advanceTo(t, s, "skip")
	base := s.Depth()
	var total int64
	calls := 0
	for {
		res, err := s.SkimSubtree(SkimLimits{BaseOpen: base, ChunkElements: 3})
		if err != nil {
			t.Fatalf("chunked skim: %v", err)
		}
		total += res.Elements
		calls++
		if res.Done {
			break
		}
		if res.Elements != 3 {
			t.Fatalf("chunk consumed %d elements, want 3", res.Elements)
		}
	}
	if total != 10 || calls != 5 { // 3+3+3+1(+final empty Done)… 4 chunks reach 10, 4th is Done
		if total != 10 {
			t.Fatalf("chunked skim counted %d elements, want 10", total)
		}
	}
}

func TestSkimSubtreeLimits(t *testing.T) {
	deep := `<r><skip>` + strings.Repeat(`<d>`, 50) + strings.Repeat(`</d>`, 50) + `</skip></r>`
	s := NewScanner(strings.NewReader(deep))
	advanceTo(t, s, "skip")
	res, err := s.SkimSubtree(SkimLimits{BaseOpen: s.Depth(), MaxOpen: 10})
	if !errors.Is(err, ErrSkimDepth) {
		t.Fatalf("deep skim: err=%v, want ErrSkimDepth", err)
	}
	if res.MaxOpen > 10 {
		t.Fatalf("recorded MaxOpen %d ignores the limit 10", res.MaxOpen)
	}

	wide := `<r><skip>` + strings.Repeat(`<i/>`, 50) + `</skip></r>`
	s = NewScanner(strings.NewReader(wide))
	advanceTo(t, s, "skip")
	res, err = s.SkimSubtree(SkimLimits{BaseOpen: s.Depth(), MaxTotalElements: 20, BaseElements: 2})
	if !errors.Is(err, ErrSkimElements) {
		t.Fatalf("wide skim: err=%v, want ErrSkimElements", err)
	}
	if res.Elements != 19 { // 2 base + 19th crossed 20? count fires after counting the crosser: 2+18=20 ok, 2+19=21 > 20
		t.Fatalf("wide skim counted %d elements before stopping, want 19", res.Elements)
	}
}

func TestSkimSubtreeRejectsMalformedInterior(t *testing.T) {
	for _, doc := range []string{
		`<r><skip><a></b></skip></r>`,
		`<r><skip><a>&bad;</a></skip></r>`,
		`<r><skip><a x=nope/></skip></r>`,
		`<r><skip>]]></skip></r>`,
		`<r><skip><a>`,
	} {
		s := NewScanner(strings.NewReader(doc))
		advanceTo(t, s, "skip")
		if _, err := s.SkimSubtree(SkimLimits{BaseOpen: s.Depth()}); err == nil {
			t.Errorf("%q: skim accepted a malformed subtree", doc)
		}
	}
}

func TestPoolReuse(t *testing.T) {
	for i := 0; i < 100; i++ {
		s := Get(strings.NewReader(`<a x="1">text</a>`))
		for {
			ev, err := s.Next()
			if err != nil {
				t.Fatalf("pooled scan: %v", err)
			}
			if ev == EventEOF {
				break
			}
		}
		s.Release()
	}
}

// attrEvents flattens the start tags of doc with their kept attributes,
// one "name[raw=value ...]" entry per tag, splitting each raw name at its
// local-part offset.
func attrEvents(doc string) ([]string, error) {
	s := NewScanner(strings.NewReader(doc))
	s.KeepAttrs()
	var out []string
	for {
		ev, err := s.Next()
		if err != nil {
			return out, err
		}
		switch ev {
		case EventEOF:
			return out, nil
		case EventStart:
			var b strings.Builder
			b.WriteString(string(s.Name()) + "[")
			for i := 0; i < s.NumAttr(); i++ {
				name, local, value := s.Attr(i)
				prefix := ""
				if local > 0 {
					prefix = string(name[:local-1])
				}
				fmt.Fprintf(&b, " %s|%s=%q", prefix, name[local:], value)
			}
			out = append(out, b.String()+"]")
		}
	}
}

// attrEventsStd flattens encoding/xml's raw (untranslated) start tags the
// same way.
func attrEventsStd(doc string) ([]string, error) {
	dec := xml.NewDecoder(strings.NewReader(doc))
	var out []string
	for {
		tok, err := dec.RawToken()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if t, ok := tok.(xml.StartElement); ok {
			var b strings.Builder
			b.WriteString(t.Name.Local + "[")
			for _, a := range t.Attr {
				fmt.Fprintf(&b, " %s|%s=%q", a.Name.Space, a.Name.Local, a.Value)
			}
			out = append(out, b.String()+"]")
		}
	}
}

func TestAttrsMatchEncodingXML(t *testing.T) {
	docs := append([]string{
		`<a x="1" p:y='2' xmlns:p="urn:p" xmlns="urn:d"><b/><c z="&lt;&#65;&amp;"/></a>`,
		"<a v=\"x\r\ny\rz\n\t\" w=\"&#13;\"/>",
		`<a :b="1" c:="2"/>`,
		`<a b="]]>" c='"' d="'"/>`,
		`<a   b = "1"   ><b c="2"></b></a>`,
		`<a b="1" b="2"/>`,
	}, differentialCases...)
	for _, doc := range docs {
		got, err := attrEvents(doc)
		want, errStd := attrEventsStd(doc)
		if err != nil || errStd != nil {
			continue // acceptance is TestScannerMatchesEncodingXML's job
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%q:\n got %v\nwant %v", doc, got, want)
		}
	}
}

func TestAttrsBelongToLastStartTag(t *testing.T) {
	s := NewScanner(strings.NewReader(`<a x="1"><b></b><c y="2"/>t</a>`))
	s.KeepAttrs()
	want := []int{1, 0, 0, 1, 1, 0, 0}
	for i, n := range want {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
		if got := s.NumAttr(); got != n {
			t.Fatalf("event %d: NumAttr %d, want %d", i, got, n)
		}
	}

	// Without KeepAttrs, and after Reset turns it off, nothing is kept.
	s.Reset(strings.NewReader(`<a x="1"/>`))
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if s.NumAttr() != 0 {
		t.Fatal("Reset left KeepAttrs on")
	}
}

// An empty CDATA section is a text event of its own, as encoding/xml
// reports it; the tree builder turns it into an empty χ leaf under
// KeepWhitespaceText.
func TestEmptyCDATAIsATextEvent(t *testing.T) {
	s := NewScanner(strings.NewReader(`<a><![CDATA[]]></a>`))
	var events []Event
	for {
		ev, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev == EventEOF {
			break
		}
		events = append(events, ev)
	}
	if want := []Event{EventStart, EventText, EventEnd}; fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("events %v, want %v", events, want)
	}
}

func TestReleaseDropsOversizedAttrs(t *testing.T) {
	s := NewScanner(strings.NewReader(`<a v="` + strings.Repeat("x", maxRetainedBuf+1) + `"/>`))
	s.KeepAttrs()
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if cap(s.attrBuf) <= maxRetainedBuf {
		t.Fatalf("attribute storage did not grow: cap %d", cap(s.attrBuf))
	}
	s.Release()
	if s.attrBuf != nil {
		t.Fatal("Release kept oversized attribute storage")
	}
}

// A walker that never asks for attributes must not pay for them: a
// warm scanner re-scanning an attribute-heavy document allocates nothing.
func TestScanWithoutKeepAttrsAllocatesNothing(t *testing.T) {
	doc := `<a x="1" p:y="&amp;2" xmlns:p="urn:p">` + strings.Repeat(`<b c="3" d='4'>t</b><e/>`, 50) + `</a>`
	r := strings.NewReader(doc)
	s := NewScanner(r)
	scan := func() {
		r.Reset(doc)
		s.Reset(r)
		for {
			ev, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if ev == EventEOF {
				break
			}
		}
	}
	scan()
	if allocs := testing.AllocsPerRun(50, scan); allocs != 0 {
		t.Fatalf("scan allocated %v times per document", allocs)
	}
}
