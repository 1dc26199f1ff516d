package cast

import (
	"strings"
	"testing"

	"repro/internal/fa"
	"repro/internal/regexpsym"
	"repro/internal/schema"
	"repro/internal/work"
	"repro/internal/xmltree"
)

// decisionPairSchemas builds a schema pair whose root content IDA is
// undecided at the start state and immediately accepts after reading one
// "a": source root content (a, b*) | (z, c), target (a, (b|c)*) | z. After
// "a" the source residual b* is contained in the target residual (b|c)*;
// before any symbol the source word "z c" is not target-valid, so no
// decision is possible yet.
func decisionPairSchemas(t *testing.T) (src, dst *schema.Schema) {
	t.Helper()
	alpha := fa.NewAlphabet()
	build := func(name, content string) *schema.Schema {
		s := schema.New(alpha)
		str, err := s.AddSimpleType("str", schema.NewSimpleType(schema.StringKind))
		if err != nil {
			t.Fatal(err)
		}
		root, err := s.AddComplexType(name, regexpsym.MustParse(content))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []string{"a", "b", "c", "z"} {
			if err := s.SetChildType(root, l, str); err != nil {
				t.Fatal(err)
			}
		}
		s.SetRoot("root", root)
		if err := s.Compile(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	src = build("RootS", "(a, b*) | (z, c)")
	dst = build("RootT", "(a, (b|c)*) | z")
	return src, dst
}

// TestCheckContentVetsLabelsAfterDecision is the regression test for the
// hot-path verdict bug where checkContent stopped vetting child labels once
// the IDA immediately accepted: a label unknown to both schemas after the
// decision point was silently accepted, while the same label before the
// decision point raised a contract error. Both positions must error.
func TestCheckContentVetsLabelsAfterDecision(t *testing.T) {
	src, dst := decisionPairSchemas(t)
	e := MustNew(src, dst, Options{})
	tS := src.TypeOf(src.TypeByName("RootS"))
	tD := dst.TypeOf(dst.TypeByName("RootT"))

	// Guard the test's premise: the IDA must be undecided at the start and
	// must immediately accept after exactly one "a".
	ida := e.caster(tS.ID, tD.ID).CImmed
	if ida.Classify(ida.D.Start()) != fa.Undecided {
		t.Fatal("premise broken: IDA must be undecided before any symbol")
	}
	res := ida.ScanFromStart([]fa.Symbol{src.Alpha.Lookup("a")})
	if res.Decision != fa.ImmediateAccept {
		t.Fatalf("premise broken: IDA should immediately accept after 'a', got %v", res.Decision)
	}

	// Sanity: a well-formed child string passes.
	good := xmltree.NewElement("root",
		xmltree.NewElement("a"), xmltree.NewElement("b"), xmltree.NewElement("b"))
	var st work.Counters
	if err := e.checkContent(tS, tD, good, &st); err != nil {
		t.Fatalf("a b b should satisfy the target model: %v", err)
	}

	// Unknown label BEFORE the decision point: contract error (as before).
	before := xmltree.NewElement("root",
		xmltree.NewElement("mystery"), xmltree.NewElement("a"))
	if err := e.checkContent(tS, tD, before, &st); err == nil {
		t.Fatal("unknown label before the decision point must raise a contract error")
	} else if !strings.Contains(err.Error(), "mystery") {
		t.Fatalf("error should name the unknown label: %v", err)
	}

	// Unknown label AFTER the decision point: was silently accepted.
	after := xmltree.NewElement("root",
		xmltree.NewElement("a"), xmltree.NewElement("mystery"))
	if err := e.checkContent(tS, tD, after, &st); err == nil {
		t.Fatal("unknown label after the decision point must raise a contract error")
	} else if !strings.Contains(err.Error(), "mystery") {
		t.Fatalf("error should name the unknown label: %v", err)
	}
}
