package revalidate

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/wgen"
)

// loadPaperPair loads the Figure 1a (source) and Figure 2 (target) schemas
// into one universe.
func loadPaperPair(t *testing.T) (*Universe, *Schema, *Schema) {
	t.Helper()
	u := NewUniverse()
	src, err := u.LoadXSDString(wgen.Figure2XSD(true, 100))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := u.LoadXSDString(wgen.Figure2XSD(false, 100))
	if err != nil {
		t.Fatal(err)
	}
	return u, src, dst
}

func poDocXML(items int, bill bool) string {
	doc := wgen.PODocument(wgen.PODocOptions{Items: items, IncludeBillTo: bill, Seed: 11})
	return string(wgen.POXMLBytes(doc))
}

func TestCasterEndToEnd(t *testing.T) {
	_, src, dst := loadPaperPair(t)
	caster, err := NewCaster(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseDocumentString(poDocXML(20, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Validate(doc); err != nil {
		t.Fatalf("doc should be source-valid: %v", err)
	}
	if err := caster.Validate(doc); err != nil {
		t.Fatalf("cast should pass: %v", err)
	}
	st, err := caster.ValidateStats(doc)
	if err != nil {
		t.Fatal(err)
	}
	if st.NodesVisited() > 4 || st.SubsumedSkips == 0 {
		t.Fatalf("expected constant work with skips, got %+v", st)
	}

	noBill, _ := ParseDocumentString(poDocXML(20, false))
	if err := caster.Validate(noBill); err == nil {
		t.Fatal("billTo-less doc must fail the cast")
	}
	if !strings.Contains(caster.Validate(noBill).Error(), "purchaseOrder") {
		t.Fatal("error should locate the failure")
	}
}

func TestCasterVsFullValidation(t *testing.T) {
	_, src, dst := loadPaperPair(t)
	caster, _ := NewCaster(src, dst)
	doc, _ := ParseDocumentString(poDocXML(100, true))
	castStats, err := caster.ValidateStats(doc)
	if err != nil {
		t.Fatal(err)
	}
	fullStats, err := dst.ValidateFull(doc)
	if err != nil {
		t.Fatal(err)
	}
	if castStats.NodesVisited() >= fullStats.NodesVisited() {
		t.Fatalf("cast (%d nodes) should beat full validation (%d nodes)",
			castStats.NodesVisited(), fullStats.NodesVisited())
	}
}

func TestCasterOptions(t *testing.T) {
	_, src, dst := loadPaperPair(t)
	for _, opts := range [][]CasterOption{
		{WithoutContentIDA()},
		{WithoutRelations()},
		{WithoutContentIDA(), WithoutRelations()},
	} {
		caster, err := NewCaster(src, dst, opts...)
		if err != nil {
			t.Fatal(err)
		}
		doc, _ := ParseDocumentString(poDocXML(5, true))
		if err := caster.Validate(doc); err != nil {
			t.Fatalf("cast with options should still pass: %v", err)
		}
		bad, _ := ParseDocumentString(poDocXML(5, false))
		if err := caster.Validate(bad); err == nil {
			t.Fatal("cast with options should still reject")
		}
	}
}

func TestCrossUniverseRejected(t *testing.T) {
	u1 := NewUniverse()
	u2 := NewUniverse()
	s1, err := u1.LoadXSDString(wgen.Figure2XSD(true, 100))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := u2.LoadXSDString(wgen.Figure2XSD(false, 100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCaster(s1, s2); err == nil {
		t.Fatal("cross-universe caster must be rejected")
	}
}

func TestEditSessionRoundTrip(t *testing.T) {
	_, src, dst := loadPaperPair(t)
	caster, _ := NewCaster(src, dst)

	// Document without billTo: source-valid, target-invalid. Insert one.
	doc, _ := ParseDocumentString(poDocXML(10, false))
	es := doc.Edit()
	bill := Element("billTo",
		Element("name", Text("Bob")),
		Element("street", Text("2 Oak Ave")),
		Element("city", Text("Old Town")),
		Element("state", Text("PA")),
		Element("zip", Text("95819")),
		Element("country", Text("US")),
	)
	shipTo, ok := doc.Root().First("shipTo")
	if !ok {
		t.Fatal("shipTo missing")
	}
	if err := es.InsertAfter(shipTo, bill); err != nil {
		t.Fatal(err)
	}
	changes := es.Done()
	if changes.Empty() || changes.Size() != 1 {
		t.Fatalf("change set wrong: %d", changes.Size())
	}
	if err := caster.ValidateModified(doc, changes); err != nil {
		t.Fatalf("after inserting billTo the cast should pass: %v", err)
	}
	// The serialized document now contains the new element.
	if !strings.Contains(doc.XML(), "<billTo>") {
		t.Fatal("serialization should include the insert")
	}
}

func TestEditSessionDeleteAndSetValue(t *testing.T) {
	u := NewUniverse()
	s, err := u.LoadXSDString(wgen.Figure2XSD(false, 100))
	if err != nil {
		t.Fatal(err)
	}
	caster, _ := NewCaster(s, s) // incremental same-schema revalidation

	doc, _ := ParseDocumentString(poDocXML(30, true))
	es := doc.Edit()
	item5 := doc.Root().All("item")[5]
	qty, _ := item5.First("quantity")
	if err := es.SetValue(qty, "250"); err != nil {
		t.Fatal(err)
	}
	changes := es.Done()
	st, err := caster.ValidateModifiedStats(doc, changes)
	if err == nil {
		t.Fatal("quantity 250 must fail")
	}
	if st.NodesVisited() > 100 {
		t.Fatalf("work should be localized: %+v", st)
	}

	// Deleting the offending item heals the document.
	doc2, _ := ParseDocumentString(poDocXML(30, true))
	es2 := doc2.Edit()
	item := doc2.Root().All("item")[5]
	qty2, _ := item.First("quantity")
	if err := es2.SetValue(qty2, "250"); err != nil {
		t.Fatal(err)
	}
	if err := es2.Delete(item); err != nil {
		t.Fatal(err)
	}
	if err := caster.ValidateModified(doc2, es2.Done()); err != nil {
		t.Fatalf("after deleting the bad item the cast should pass: %v", err)
	}
	if strings.Contains(doc2.XML(), "250") {
		t.Fatal("deleted subtree must not serialize")
	}
}

// Regression test: SetValue after deleting the text child must skip the
// tombstone and insert a fresh text child, not edit the deleted node.
func TestSetValueAfterDeleteInsertsFreshText(t *testing.T) {
	u := NewUniverse()
	s, err := u.LoadXSDString(wgen.Figure2XSD(false, 100))
	if err != nil {
		t.Fatal(err)
	}
	caster, err := NewCaster(s, s)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseDocumentString(poDocXML(10, true))
	if err != nil {
		t.Fatal(err)
	}
	es := doc.Edit()
	qty, ok := doc.Root().First("quantity")
	if !ok {
		t.Fatal("no quantity element")
	}
	if err := es.Delete(qty.Child(0)); err != nil {
		t.Fatal(err)
	}
	if err := es.SetValue(qty, "42"); err != nil {
		t.Fatalf("SetValue after delete should insert a fresh text child: %v", err)
	}
	if err := caster.ValidateModified(doc, es.Done()); err != nil {
		t.Fatalf("delete→SetValue document should revalidate: %v", err)
	}
	if !strings.Contains(doc.XML(), "<quantity>42</quantity>") {
		t.Fatal("post-edit serialization should carry the fresh text child")
	}
}

func TestValidateIndexed(t *testing.T) {
	_, src, dst := loadPaperPair(t)
	if !src.IsDTD() || !dst.IsDTD() {
		t.Fatal("paper schemas are DTD-shaped")
	}
	caster, _ := NewCaster(src, dst)
	doc, _ := ParseDocumentString(poDocXML(50, true))
	idx := BuildIndex(doc)
	st, err := caster.ValidateIndexedStats(doc, idx)
	if err != nil {
		t.Fatalf("indexed cast should pass: %v", err)
	}
	if st.ElementsVisited > 3 {
		t.Fatalf("indexed cast should visit ~2 elements, got %+v", st)
	}
}

func TestSchemaBuilder(t *testing.T) {
	u := NewUniverse()
	s, err := u.NewSchema().
		SimpleType("Qty", Facets{Base: "positiveInteger", MaxExclusive: F(100)}).
		SimpleType("Str", Facets{Base: "string"}).
		ComplexType("Item", "productName, quantity", map[string]string{
			"productName": "Str", "quantity": "Qty",
		}).
		ComplexType("Items", "item*", map[string]string{"item": "Item"}).
		Root("items", "Items").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := ParseDocumentString(
		`<items><item><productName>W</productName><quantity>42</quantity></item></items>`)
	if err := s.Validate(doc); err != nil {
		t.Fatalf("valid doc rejected: %v", err)
	}
	bad, _ := ParseDocumentString(
		`<items><item><productName>W</productName><quantity>100</quantity></item></items>`)
	if err := s.Validate(bad); err == nil {
		t.Fatal("quantity 100 must fail")
	}
}

func TestSchemaBuilderErrors(t *testing.T) {
	u := NewUniverse()
	if _, err := u.NewSchema().SimpleType("X", Facets{Base: "bogus"}).Build(); err == nil {
		t.Fatal("unknown base must fail")
	}
	if _, err := u.NewSchema().
		ComplexType("A", "b", map[string]string{"b": "Missing"}).
		Build(); err == nil {
		t.Fatal("undeclared child type must fail")
	}
	if _, err := u.NewSchema().
		ComplexType("A", "b(", nil).
		Build(); err == nil {
		t.Fatal("bad content model must fail")
	}
	if _, err := u.NewSchema().Root("a", "Missing").Build(); err == nil {
		t.Fatal("undeclared root type must fail")
	}
}

func TestLoadDTD(t *testing.T) {
	u := NewUniverse()
	s, err := u.LoadDTD(`
		<!ELEMENT note (to, body)>
		<!ELEMENT to (#PCDATA)>
		<!ELEMENT body (#PCDATA)>
	`, "note")
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := ParseDocumentString(`<note><to>Alice</to><body>hi</body></note>`)
	if err := s.Validate(doc); err != nil {
		t.Fatal(err)
	}
}

func TestStringCaster(t *testing.T) {
	sc, err := NewStringCaster("shipTo, billTo?, items", "shipTo, billTo, items")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Validate([]string{"shipTo", "billTo", "items"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || !res.Early || res.Scanned != 2 {
		t.Fatalf("expected early accept after 2 symbols: %+v", res)
	}
	res, err = sc.Validate([]string{"shipTo", "items"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("billTo-less sequence must be rejected")
	}
	if _, err := sc.Validate([]string{"bogus"}); err == nil {
		t.Fatal("unknown label must error")
	}
	if _, err := NewStringCaster("(", "a"); err == nil {
		t.Fatal("bad source expression must fail")
	}
	if _, err := NewStringCaster("a", "("); err == nil {
		t.Fatal("bad target expression must fail")
	}
}

func TestStringEditor(t *testing.T) {
	sc, err := NewStringCaster("x, y*", "x, y*")
	if err != nil {
		t.Fatal(err)
	}
	ed, err := sc.Edit([]string{"x", "y", "y", "y", "y", "y"})
	if err != nil {
		t.Fatal(err)
	}
	ed.Append("y")
	res := ed.Validate()
	if !res.Accepted || !res.Reversed {
		t.Fatalf("append should validate via reverse scan: %+v", res)
	}
	if got := ed.Current(); len(got) != 7 || got[6] != "y" {
		t.Fatalf("Current = %v", got)
	}
	ed.Delete(0)
	ed.Insert(0, "x")
	ed.Replace(1, "y")
	if !ed.Validate().Accepted {
		t.Fatal("rebuilt sequence should still validate")
	}
}

func TestDocumentNavigation(t *testing.T) {
	doc, err := ParseDocumentString(
		`<po id="7"><items><item><q>1</q></item><item><q>2</q></item></items></po>`)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root()
	if root.Label() != "po" || !root.IsValid() {
		t.Fatal("root cursor wrong")
	}
	if v, ok := root.Attr("id"); !ok || v != "7" {
		t.Fatal("attr lookup wrong")
	}
	items := root.All("item")
	if len(items) != 2 {
		t.Fatalf("All(item) = %d", len(items))
	}
	q, ok := items[1].First("q")
	if !ok || q.Value() != "2" {
		t.Fatal("First/Value wrong")
	}
	if q.Path() != "/po/items/item[2]/q" {
		t.Fatalf("Path = %q", q.Path())
	}
	if q.Parent().Label() != "item" {
		t.Fatal("Parent wrong")
	}
	if doc.NodeCount() != 8 {
		t.Fatalf("NodeCount = %d, want 8", doc.NodeCount())
	}
	if _, ok := root.First("missing"); ok {
		t.Fatal("First of missing label should fail")
	}
	// Clone independence.
	clone := doc.Clone()
	es := clone.Edit()
	cq, _ := clone.Root().First("q")
	if err := es.SetText(cq.Child(0), "9"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(doc.XML(), "9") {
		t.Fatal("clone edits leaked into the original")
	}
}

func TestNewDocumentProgrammatic(t *testing.T) {
	doc := NewDocument(Element("a", Element("b", Text("v"))))
	if doc.XML() != "<a><b>v</b></a>" {
		t.Fatalf("XML = %q", doc.XML())
	}
	var sb strings.Builder
	if err := doc.WriteXML(&sb, "  "); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\n  <b>") {
		t.Fatalf("indentation missing: %q", sb.String())
	}
}

func TestSchemaIntrospection(t *testing.T) {
	_, src, _ := loadPaperPair(t)
	names := src.TypeNames()
	found := false
	for _, n := range names {
		if n == "USAddress" {
			found = true
		}
	}
	if !found {
		t.Fatalf("TypeNames missing USAddress: %v", names)
	}
	if !strings.Contains(src.String(), "shipTo, billTo?, items") {
		t.Fatalf("String() missing content model:\n%s", src.String())
	}
	if src.Universe() == nil {
		t.Fatal("Universe accessor broken")
	}
}

// Regression: schemas loaded into one universe at different times hold
// automata over different alphabet widths; the caster must reconcile them
// (found by schema-pair fuzzing).
func TestCasterAcrossGrowingAlphabet(t *testing.T) {
	u := NewUniverse()
	src, err := u.NewSchema().
		SimpleType("S", Facets{Base: "string"}).
		ComplexType("A", "x, y", map[string]string{"x": "S", "y": "S"}).
		Root("a", "A").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// The second schema interns labels the first never saw.
	dst, err := u.NewSchema().
		SimpleType("S", Facets{Base: "string"}).
		ComplexType("A", "x, y, z?", map[string]string{"x": "S", "y": "S", "z": "S"}).
		Root("a", "A").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	caster, err := NewCaster(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := ParseDocumentString(`<a><x>1</x><y>2</y></a>`)
	if err := caster.Validate(doc); err != nil {
		t.Fatalf("cast across grown alphabet failed: %v", err)
	}
}

func TestStreamingPublicAPI(t *testing.T) {
	_, src, dst := loadPaperPair(t)
	xml := poDocXML(50, true)

	// Full streaming validation.
	st, err := dst.ValidateStream(strings.NewReader(xml))
	if err != nil {
		t.Fatalf("streaming validation failed: %v", err)
	}
	if st.ElementsVisited == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if _, err := dst.ValidateStream(strings.NewReader(poDocXML(5, false))); err == nil {
		t.Fatal("invalid doc must fail")
	}

	// Streaming cast: experiment-1 shape — work constant, skimming heavy.
	sc, err := NewStreamCaster(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	cst, err := sc.Validate(strings.NewReader(xml))
	if err != nil {
		t.Fatalf("streaming cast failed: %v", err)
	}
	if cst.ElementsVisited > 4 || cst.ElementsSkimmed == 0 {
		t.Fatalf("expected constant processing with skimming: %+v", cst)
	}
	if _, err := sc.Validate(strings.NewReader(poDocXML(5, false))); err == nil {
		t.Fatal("invalid doc must fail the streaming cast")
	}

	// Cross-universe rejection.
	other := NewUniverse()
	foreign, _ := other.LoadXSDString(wgen.Figure2XSD(false, 100))
	if _, err := NewStreamCaster(src, foreign); err == nil {
		t.Fatal("cross-universe stream caster must be rejected")
	}
}

func TestValidateStreamContextGovernance(t *testing.T) {
	_, _, dst := loadPaperPair(t)
	xml := poDocXML(50, true)

	// The governed variant with generous limits agrees with ValidateStream.
	st, err := dst.ValidateStreamContext(context.Background(), strings.NewReader(xml),
		Limits{MaxDepth: 100, MaxElements: 100000})
	if err != nil {
		t.Fatalf("governed streaming validation failed: %v", err)
	}
	if st.ElementsVisited == 0 {
		t.Fatalf("stats empty: %+v", st)
	}

	// An element budget below the document size yields a LimitError.
	_, err = dst.ValidateStreamContext(context.Background(), strings.NewReader(xml),
		Limits{MaxElements: 10})
	var le *LimitError
	if !errors.As(err, &le) || le.Kind != "elements" {
		t.Fatalf("want elements LimitError, got %v", err)
	}

	// A depth cap of 1 rejects any nested document.
	_, err = dst.ValidateStreamContext(context.Background(), strings.NewReader(xml),
		Limits{MaxDepth: 1})
	if !errors.As(err, &le) || le.Kind != "depth" {
		t.Fatalf("want depth LimitError, got %v", err)
	}

	// A pre-canceled context stops the validation and surfaces the cause.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dst.ValidateStreamContext(ctx, strings.NewReader(strings.Repeat(" ", 100000)+xml), Limits{}); err == nil {
		t.Fatal("pre-canceled context must fail")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
}

func TestPublicSurfaceCompleteness(t *testing.T) {
	// Exercise the remaining public cursors and edit operations.
	u := NewUniverse()
	src, err := u.LoadXSD(strings.NewReader(wgen.Figure2XSD(true, 100)))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := u.LoadXSDString(wgen.Figure2XSD(false, 100))
	if err != nil {
		t.Fatal(err)
	}
	caster, err := NewCaster(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if caster.Source() != src || caster.Target() != dst {
		t.Fatal("caster accessors wrong")
	}

	doc, _ := ParseDocumentString(`<purchaseOrder><shipTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip><country>US</country></shipTo><items/></purchaseOrder>`)
	root := doc.Root()
	if root.IsText() {
		t.Fatal("root is an element")
	}
	if root.NumChildren() != 2 {
		t.Fatalf("NumChildren = %d", root.NumChildren())
	}
	kids := root.Children()
	if len(kids) != 2 || kids[0].Label() != "shipTo" {
		t.Fatal("Children wrong")
	}
	if !strings.Contains(kids[0].String(), "<name>n</name>") {
		t.Fatalf("Elem.String = %q", kids[0].String())
	}

	// Edit: build billTo via InsertBefore/InsertFirstChild/AppendChild and
	// a Relabel, then cast-validate incrementally.
	es := doc.Edit()
	bill := Element("billToX")
	if err := es.InsertBefore(kids[1], bill); err != nil { // before items
		t.Fatal(err)
	}
	if err := es.Relabel(bill, "billTo"); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"street", "city", "state", "country"} {
		if err := es.AppendChild(bill, Element(f, Text("v1"))); err != nil {
			t.Fatal(err)
		}
	}
	zipField := Element("zip", Text("12345"))
	if err := es.InsertBefore(bill.Children()[3], zipField); err != nil { // before country
		t.Fatal(err)
	}
	if err := es.InsertFirstChild(bill, Element("name", Text("first"))); err != nil {
		t.Fatal(err)
	}
	if es.Edits() != 8 {
		t.Fatalf("Edits = %d, want 8", es.Edits())
	}
	changes := es.Done()
	if err := caster.ValidateModified(doc, changes); err != nil {
		t.Fatalf("edited doc should cast-validate: %v", err)
	}
	// ValidateIndexed without stats.
	idx := BuildIndex(doc)
	if err := caster.ValidateIndexed(doc, idx); err != nil {
		t.Fatalf("indexed validation failed: %v", err)
	}
	// Negative indexed path, respecting the cast contract: a source-valid
	// document without billTo (optional in source, required in target).
	doc2 := doc.Clone()
	bill2, _ := doc2.Root().First("billTo")
	es2 := doc2.Edit()
	if err := es2.Delete(bill2); err != nil {
		t.Fatal(err)
	}
	_ = es2.Done()
	if err := src.Validate(doc2); err != nil {
		t.Fatalf("doc2 should stay source-valid: %v", err)
	}
	if err := caster.ValidateIndexed(doc2, BuildIndex(doc2)); err == nil {
		t.Fatal("missing billTo should fail indexed validation")
	}
}

// The Caster documents concurrency safety; exercise it under the race
// detector.
func TestCasterConcurrentUse(t *testing.T) {
	_, src, dst := loadPaperPair(t)
	caster, _ := NewCaster(src, dst)
	sc, _ := NewStreamCaster(src, dst)
	xml := poDocXML(20, true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			doc, err := ParseDocumentString(xml)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 20; i++ {
				if err := caster.Validate(doc); err != nil {
					t.Error(err)
					return
				}
				if _, err := sc.Validate(strings.NewReader(xml)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
