package cast

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/schema"
	"repro/internal/wgen"
	"repro/internal/work"
	"repro/internal/xmltree"
)

func paperEngines(t *testing.T, opts Options) (ps *wgen.PaperSchemas, exp1, exp2 *Engine) {
	t.Helper()
	ps = wgen.NewPaperSchemas()
	e1, err := New(ps.Source1, ps.Target, opts)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(ps.Source2, ps.Target, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ps, e1, e2
}

func TestExperiment1Semantics(t *testing.T) {
	_, e1, _ := paperEngines(t, Options{})

	withBill := wgen.PODocument(wgen.PODocOptions{Items: 20, IncludeBillTo: true, Seed: 1})
	st, err := e1.Validate(withBill)
	if err != nil {
		t.Fatalf("document with billTo should cast-validate: %v\n%s", err, st)
	}
	withoutBill := wgen.PODocument(wgen.PODocOptions{Items: 20, IncludeBillTo: false, Seed: 1})
	if _, err := e1.Validate(withoutBill); err == nil {
		t.Fatal("document without billTo must fail against the target")
	}
}

// The headline Experiment-1 property: work is O(1) in document size —
// the engine only inspects the root's children, never the subtrees.
func TestExperiment1ConstantWork(t *testing.T) {
	_, e1, _ := paperEngines(t, Options{})
	var first work.Counters
	for i, n := range []int{2, 100, 1000} {
		doc := wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, Seed: 7})
		st, err := e1.Validate(doc)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = st
			continue
		}
		if st.NodesVisited() != first.NodesVisited() || st.AutomatonSteps != first.AutomatonSteps {
			t.Fatalf("work should be constant in item count: %v vs %v", first, st)
		}
	}
	// And tiny: root + its three children at most.
	doc := wgen.PODocument(wgen.PODocOptions{Items: 1000, IncludeBillTo: true, Seed: 7})
	st, _ := e1.Validate(doc)
	if st.NodesVisited() > 4 {
		t.Fatalf("expected ≤4 nodes visited, got %s", st)
	}
	base := baseline.New(e1.Dst)
	bst, err := base.Validate(doc)
	if err != nil {
		t.Fatal(err)
	}
	if bst.NodesVisited() < 5000 {
		t.Fatalf("baseline should visit every node (~7k for this layout), got %d", bst.NodesVisited())
	}
}

func TestExperiment2Semantics(t *testing.T) {
	_, _, e2 := paperEngines(t, Options{})

	ok := wgen.PODocument(wgen.PODocOptions{Items: 50, IncludeBillTo: true, MaxQuantity: 99, Seed: 2})
	if _, err := e2.Validate(ok); err != nil {
		t.Fatalf("quantities < 100 should pass: %v", err)
	}
	// Force one quantity to 150: must fail.
	bad := wgen.PODocument(wgen.PODocOptions{Items: 50, IncludeBillTo: true, MaxQuantity: 99, Seed: 2})
	qty := bad.Children[2].Children[25].Children[1]
	if qty.Label != "quantity" {
		t.Fatal("navigation broken")
	}
	qty.Children[0].Text = "150"
	if _, err := e2.Validate(bad); err == nil {
		t.Fatal("quantity 150 must fail against maxExclusive=100")
	}
}

// Experiment-2 scaling: linear in items, but strictly fewer nodes than the
// baseline (the paper's Table 3: ~20% fewer).
func TestExperiment2NodeCounts(t *testing.T) {
	ps, _, e2 := paperEngines(t, Options{})
	base := baseline.New(ps.Target)
	var prevCast, prevBase int64
	for _, n := range []int{10, 100, 1000} {
		doc := wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, MaxQuantity: 99, Seed: 3})
		cst, err := e2.Validate(doc)
		if err != nil {
			t.Fatal(err)
		}
		bst, err := base.Validate(doc)
		if err != nil {
			t.Fatal(err)
		}
		if cst.NodesVisited() >= bst.NodesVisited() {
			t.Fatalf("cast (%d) should visit fewer nodes than baseline (%d) at n=%d",
				cst.NodesVisited(), bst.NodesVisited(), n)
		}
		// Linearity: growth should be proportional to item growth.
		if prevCast > 0 {
			growthCast := float64(cst.NodesVisited()) / float64(prevCast)
			growthBase := float64(bst.NodesVisited()) / float64(prevBase)
			if growthCast < 5 || growthCast > 15 || growthBase < 5 || growthBase > 15 {
				t.Fatalf("both should grow ~10x per decade: cast %.1f, base %.1f",
					growthCast, growthBase)
			}
		}
		prevCast, prevBase = cst.NodesVisited(), bst.NodesVisited()
	}
}

// Differential oracle: on random documents (valid for the source), the cast
// verdict must equal the baseline full-validation verdict against the
// target, under every option combination.
func TestCastAgreesWithFullValidation(t *testing.T) {
	ps := wgen.NewPaperSchemas()
	pairs := [][2]*schema.Schema{
		{ps.Source1, ps.Target},
		{ps.Source2, ps.Target},
		{ps.Target, ps.Source1},
		{ps.Target, ps.Source2},
		{ps.Source1, ps.Source2},
	}
	optSets := []Options{
		{},
		{DisableContentIDA: true},
		{DisableRelations: true},
		{DisableContentIDA: true, DisableRelations: true},
	}
	rng := rand.New(rand.NewSource(77))
	for _, pair := range pairs {
		src, dst := pair[0], pair[1]
		gen := wgen.NewGenerator(src, rng)
		base := baseline.New(dst)
		for _, opts := range optSets {
			eng := MustNew(src, dst, opts)
			for i := 0; i < 30; i++ {
				doc, ok := gen.Document()
				if !ok {
					t.Fatal("generation failed")
				}
				_, wantErr := base.Validate(doc)
				_, gotErr := eng.Validate(doc)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("opts %+v: cast=%v baseline=%v doc=%s",
						opts, gotErr, wantErr, doc)
				}
			}
		}
	}
}

func TestValidateRootHandling(t *testing.T) {
	_, e1, _ := paperEngines(t, Options{})
	if _, err := e1.Validate(xmltree.NewText("x")); err == nil {
		t.Fatal("text root must fail")
	}
	if _, err := e1.Validate(xmltree.NewElement("unknownRoot")); err == nil {
		t.Fatal("unknown root must fail")
	}
	// comment is a root in both schemas (string content).
	comment := xmltree.NewElement("comment", xmltree.NewText("hi"))
	if _, err := e1.Validate(comment); err != nil {
		t.Fatalf("comment root should validate: %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	_, e1, _ := paperEngines(t, Options{})
	doc := wgen.PODocument(wgen.PODocOptions{Items: 5, IncludeBillTo: true, Seed: 4})
	st, err := e1.Validate(doc)
	if err != nil {
		t.Fatal(err)
	}
	if st.SubsumedSkips == 0 {
		t.Fatal("expected subsumption skips (shipTo/billTo/items subtrees)")
	}
	if st.DisjointRejects != 0 {
		t.Fatal("no disjoint rejects expected on a valid cast")
	}
	if !strings.Contains(st.String(), "skips=") {
		t.Fatalf("Stats.String = %q", st.String())
	}
}

func TestPrecomputedCasters(t *testing.T) {
	_, e1, _ := paperEngines(t, Options{})
	if e1.PrecomputedCasters() == 0 {
		t.Fatal("expected eager caster precomputation")
	}
	// With content IDA disabled nothing is precomputed.
	ps := wgen.NewPaperSchemas()
	e := MustNew(ps.Source1, ps.Target, Options{DisableContentIDA: true})
	if e.PrecomputedCasters() != 0 {
		t.Fatal("no casters should be built when disabled")
	}
}

func TestNewRejectsMismatchedSchemas(t *testing.T) {
	a := wgen.NewPaperSchemas()
	b := wgen.NewPaperSchemas() // different alphabet instance
	if _, err := New(a.Source1, b.Target, Options{}); err == nil {
		t.Fatal("schemas with different alphabets must be rejected")
	}
}

func TestMustNewPanics(t *testing.T) {
	a := wgen.NewPaperSchemas()
	b := wgen.NewPaperSchemas()
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic")
		}
	}()
	MustNew(a.Source1, b.Target, Options{})
}
