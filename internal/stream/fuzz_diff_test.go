package stream

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/wgen"
	"repro/internal/work"
	"repro/internal/xmlscan"
	"repro/internal/xmltree"
)

// diffSeeds is the shared seed corpus of the fuzz targets: documents
// chosen to steer the fuzzer into the scanner's grammar corners (CDATA,
// character and entity references, comments and PIs inside skimmed
// subtrees, directives), into the well-formedness fixes this package
// guards (trailing garbage, stray end tags), and into source-valid
// documents the target rejects.
func diffSeeds(f *testing.F) {
	for _, s := range seedDocs() {
		f.Add([]byte(s))
	}
}

// seedDocs is the document list behind diffSeeds.
func seedDocs() []string {
	valid := poXML(5, true, 99, 1)
	return []string{
		valid,
		poXML(5, false, 99, 2),
		valid[:len(valid)/2],
		// Grammar corners inside a skimmed subtree.
		strings.Replace(valid, "<shipTo>", "<shipTo><!-- inside a skim -->", 1),
		strings.Replace(valid, "<city>", "<city><![CDATA[ <raw> ]]>", 1),
		strings.Replace(valid, "<street>", "<street>&amp;&#65;&#x42;", 1),
		strings.Replace(valid, "<shipTo>", "<shipTo><?pi data?>", 1),
		// Prolog, doctype, entities, char refs, CDATA at top level.
		`<?xml version="1.0" encoding="UTF-8"?><purchaseOrder/>`,
		`<!DOCTYPE purchaseOrder [<!-- inner -->]><purchaseOrder/>`,
		`<a>&lt;&gt;&apos;&quot;&#xD800;</a>`,
		`<a><![CDATA[]]></a>`,
		`<a><![CDATA[no close`,
		// Well-formedness regressions.
		`<purchaseOrder/>trailing garbage`,
		`</purchaseOrder>`,
		`<purchaseOrder></purchaseOrder></purchaseOrder>`,
		"\uFEFF<purchaseOrder/>",
		"<purchaseOrder/>\uFEFF",
		// Structural hostility.
		strings.Repeat(`<shipTo>`, 200),
		`<a b="&#34;" c='&#39;'/>`,
		"",
		"\xff\xfe\x00<not xml",
		// Source-valid documents that only the target rejects: text after
		// a valid order's root, and Experiment 2 quantities at or over the
		// target's cap of 100.
		valid + "junk",
		poXML(5, true, 199, 3),
	}
}

// treeOracle is the reference the streaming walker is held to: parse the
// document into a tree with xmltree, then run the §3 validate
// (schema.Validate) on it. It returns the parsed tree, or the parse error,
// and whether the walker must reject the document on well-formedness
// grounds the tree parser does not enforce.
//
// Two normalisations make the tree see what the walker sees:
//
//   - The tree keeps whitespace-only text, then drops every text node that
//     is whitespace-only after coalescing. The walker concatenates all
//     text tokens of a simple element, so "1<!---->  <!---->2" is the value
//     "1  2"; the parser's default per-token drop would make it "12". And
//     the walker skips whitespace-only text under element-only types, which
//     schema.Validate would reject as text content. Dropping a
//     whitespace-only simple value changes no verdict on the paper schemas:
//     non-string bases trim before parsing and xsd:string has no facets.
//   - Non-whitespace text outside the root is ignored by xmltree and
//     rejected by the walker, so strayText reports it.
func treeOracle(data []byte) (doc *xmltree.Node, strayText bool, err error) {
	doc, err = xmltree.ParseWith(bytes.NewReader(data), xmltree.ParseOptions{KeepWhitespaceText: true})
	if err != nil {
		return nil, false, err
	}
	dropBlankText(doc)
	return doc, textOutsideRoot(data), nil
}

func dropBlankText(n *xmltree.Node) {
	kept := n.Children[:0]
	for _, c := range n.Children {
		if c.IsText() && strings.TrimSpace(c.Text) == "" {
			continue
		}
		dropBlankText(c)
		kept = append(kept, c)
	}
	n.Children = kept
}

// textOutsideRoot reports whether a well-formed document carries
// non-whitespace text before or after its root element.
func textOutsideRoot(data []byte) bool {
	sc := xmlscan.NewScanner(bytes.NewReader(data))
	open := 0
	for {
		ev, err := sc.Next()
		if err != nil || ev == xmlscan.EventEOF {
			return false
		}
		switch ev {
		case xmlscan.EventStart:
			open++
		case xmlscan.EventEnd:
			open--
		case xmlscan.EventText:
			if open == 0 && len(bytes.TrimSpace(sc.Text())) > 0 {
				return true
			}
		}
	}
}

// treeShape returns the element count and the deepest element depth
// (root = 0) of a parsed tree: the walker visits or skims every element.
func treeShape(n *xmltree.Node, depth int64) (elements, maxDepth int64) {
	elements, maxDepth = 1, depth
	for _, c := range n.Children {
		if c.IsText() {
			continue
		}
		e, d := treeShape(c, depth+1)
		elements += e
		maxDepth = max(maxDepth, d)
	}
	return elements, maxDepth
}

func isLimit(err error) bool {
	var le *LimitError
	return errors.As(err, &le)
}

// FuzzStreamFullDifferential holds streaming full validation to the tree
// oracle: a document the tree parser rejects is rejected, a parsed
// document is accepted exactly when schema.Validate accepts it (and it
// has no stray text outside the root), and an accepted document's
// statistics count every element as visited, none skimmed.
func FuzzStreamFullDifferential(f *testing.F) {
	target := wgen.NewPaperSchemas().Target
	v := NewValidator(target)
	diffSeeds(f)
	lim := Limits{MaxDepth: 64, MaxElements: 10_000}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := v.ValidateContext(context.Background(), bytes.NewReader(data), lim)
		if isLimit(err) {
			return
		}
		doc, stray, perr := treeOracle(data)
		if perr != nil {
			if err == nil {
				t.Fatalf("walker accepted a document the tree parser rejects (%v): %q", perr, data)
			}
			return
		}
		verr := target.Validate(doc)
		if want := verr == nil && !stray; (err == nil) != want {
			t.Fatalf("walker err=%v, oracle: validate=%v stray text=%v, on %q", err, verr, stray, data)
		}
		if err != nil {
			return
		}
		n, depth := treeShape(doc, 0)
		want := work.Counters{ElementsVisited: n, AutomatonSteps: n - 1, ValuesChecked: st.ValuesChecked, MaxDepth: depth}
		if st != want {
			t.Fatalf("stats %+v, want %+v (values unchecked) on %q", st, want, data)
		}
	})
}

// FuzzStreamCastDifferential holds the streaming cast, on the paper's
// Experiment 1 and 2 pairs, to the tree oracle: a document the tree parser
// rejects is rejected, and a parsed, source-valid document is accepted
// exactly when schema.Validate accepts it under the target (and it has no
// stray text outside the root), with every element either visited or
// skimmed.
func FuzzStreamCastDifferential(f *testing.F) {
	ps := wgen.NewPaperSchemas()
	casters := map[string]*Caster{}
	for name, src := range map[string]*schema.Schema{"exp1": ps.Source1, "exp2": ps.Source2} {
		c, err := NewCaster(src, ps.Target)
		if err != nil {
			f.Fatal(err)
		}
		casters[name] = c
	}
	diffSeeds(f)
	lim := Limits{MaxDepth: 64, MaxElements: 10_000}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, stray, perr := treeOracle(data)
		var verr error
		if perr == nil {
			verr = ps.Target.Validate(doc)
		}
		for name, c := range casters {
			st, err := c.ValidateContext(context.Background(), bytes.NewReader(data), lim)
			if isLimit(err) {
				continue
			}
			if perr != nil {
				if err == nil {
					t.Fatalf("%s cast accepted a document the tree parser rejects (%v): %q", name, perr, data)
				}
				continue
			}
			if c.Src.Validate(doc) != nil {
				continue // outside the cast contract: any verdict goes
			}
			if want := verr == nil && !stray; (err == nil) != want {
				t.Fatalf("%s cast err=%v, oracle: validate=%v stray text=%v, on %q", name, err, verr, stray, data)
			}
			if err != nil {
				continue
			}
			if n, depth := treeShape(doc, 0); st.ElementsVisited+st.ElementsSkimmed != n || st.MaxDepth != depth {
				t.Fatalf("%s cast: stats %+v, want %d elements to depth %d on %q", name, st, n, depth, data)
			}
		}
	})
}

// FuzzStreamFullValidate holds the full streaming validator to the same
// fault-containment contract FuzzStreamValidate holds the caster to: any
// input produces a verdict or an error under the configured limits —
// never a panic, never a hang, never a depth or element overrun.
func FuzzStreamFullValidate(f *testing.F) {
	ps := wgen.NewPaperSchemas()
	v := NewValidator(ps.Target)
	diffSeeds(f)
	const maxDepth, maxElements = 64, 10_000
	lim := Limits{MaxDepth: maxDepth, MaxElements: maxElements}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := v.ValidateContext(context.Background(), bytes.NewReader(data), lim)
		if st.MaxDepth >= maxDepth {
			t.Fatalf("depth limit not enforced: reached %d (limit %d)", st.MaxDepth, maxDepth)
		}
		if st.ElementsVisited > maxElements+1 {
			t.Fatalf("element limit not enforced: consumed %d (limit %d)", st.ElementsVisited, maxElements)
		}
		_ = err
	})
}
