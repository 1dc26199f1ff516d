package baseline

import (
	"math/rand"
	"testing"

	"repro/internal/regexpsym"
	"repro/internal/schema"
	"repro/internal/wgen"
	"repro/internal/xmltree"
)

func TestValidateAgreesWithSchemaValidate(t *testing.T) {
	ps := wgen.NewPaperSchemas()
	rng := rand.New(rand.NewSource(3))
	for _, s := range []*schema.Schema{ps.Source1, ps.Target, ps.Source2} {
		v := New(s)
		gen := wgen.NewGenerator(s, rng)
		for i := 0; i < 40; i++ {
			doc, ok := gen.Document()
			if !ok {
				t.Fatal("generation failed")
			}
			_, errBase := v.Validate(doc)
			errRef := s.Validate(doc)
			if (errBase == nil) != (errRef == nil) {
				t.Fatalf("baseline %v vs reference %v on\n%s", errBase, errRef, doc)
			}
		}
	}
}

func TestValidateCountsEveryNode(t *testing.T) {
	ps := wgen.NewPaperSchemas()
	v := New(ps.Target)
	doc := wgen.PODocument(wgen.PODocOptions{Items: 10, IncludeBillTo: true, Seed: 1})
	st, err := v.Validate(doc)
	if err != nil {
		t.Fatal(err)
	}
	if st.NodesVisited() != int64(doc.Size()) {
		t.Fatalf("baseline visited %d nodes, tree has %d", st.NodesVisited(), doc.Size())
	}
	if st.AutomatonSteps == 0 {
		t.Fatal("content-model checks should take automaton steps")
	}
}

func TestValidateRejections(t *testing.T) {
	ps := wgen.NewPaperSchemas()
	v := New(ps.Target)
	if _, err := v.Validate(xmltree.NewText("x")); err == nil {
		t.Fatal("text root must fail")
	}
	if _, err := v.Validate(xmltree.NewElement("nope")); err == nil {
		t.Fatal("unknown root must fail")
	}
	// Unknown label inside.
	doc := wgen.PODocument(wgen.PODocOptions{Items: 2, IncludeBillTo: true, Seed: 2})
	doc.Children[0].AppendChild(xmltree.NewElement("bogus"))
	if _, err := v.Validate(doc); err == nil {
		t.Fatal("unknown child label must fail")
	}
	// Text inside element content.
	doc2 := wgen.PODocument(wgen.PODocOptions{Items: 2, IncludeBillTo: true, Seed: 2})
	doc2.Children[2].AppendChild(xmltree.NewText("stray"))
	if _, err := v.Validate(doc2); err == nil {
		t.Fatal("text in element content must fail")
	}
	// Incomplete content model.
	doc3 := wgen.PODocument(wgen.PODocOptions{Items: 2, IncludeBillTo: true, Seed: 2})
	doc3.Children[2].Children[0].RemoveChildAt(0) // drop productName from item
	if _, err := v.Validate(doc3); err == nil {
		t.Fatal("incomplete item content must fail")
	}
	// Facet violation.
	doc4 := wgen.PODocument(wgen.PODocOptions{Items: 2, IncludeBillTo: true, Seed: 2})
	doc4.Children[2].Children[0].Children[1].Children[0].Text = "120"
	if _, err := v.Validate(doc4); err == nil {
		t.Fatal("quantity 120 must fail")
	}
	// Multiple text children under a simple type.
	doc5 := wgen.PODocument(wgen.PODocOptions{Items: 1, IncludeBillTo: true, Seed: 2})
	name := doc5.Children[0].Children[0]
	name.AppendChild(xmltree.NewElement("x"))
	if _, err := v.Validate(doc5); err == nil {
		t.Fatal("element content under a simple type must fail")
	}
}

func TestValidateSkipsTombstones(t *testing.T) {
	ps := wgen.NewPaperSchemas()
	v := New(ps.Source1) // billTo optional
	doc := wgen.PODocument(wgen.PODocOptions{Items: 3, IncludeBillTo: true, Seed: 4})
	doc.Children[1].Delta = xmltree.DeltaDelete
	st, err := v.Validate(doc)
	if err != nil {
		t.Fatalf("tombstoned optional billTo should pass: %v", err)
	}
	// The tombstoned subtree is not visited.
	if st.NodesVisited() >= int64(doc.Size()) {
		t.Fatal("tombstoned subtree should not be counted")
	}
}

func TestNewPanicsOnUncompiled(t *testing.T) {
	s := schema.New(nil)
	if _, err := s.AddComplexType("T", regexpsym.Epsilon{}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for uncompiled schema")
		}
	}()
	New(s)
}
