package schema

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/fa"
	"repro/internal/regexpsym"
)

// oneTypeSchema is a schema whose single complex type has the given
// content model, every label bound to an unconstrained simple type,
// compiled through models.
func oneTypeSchema(t testing.TB, content regexpsym.Node, models *ModelTable) (*Schema, error) {
	t.Helper()
	s := New(nil)
	τ, err := s.AddComplexType("T", content)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := s.AddSimpleType("S", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range regexpsym.Labels(content) {
		if err := s.SetChildType(τ, l, leaf); err != nil {
			t.Fatal(err)
		}
	}
	s.Types[τ].SkipUPA = !regexpsym.IsOneUnambiguous(content)
	s.SetRoot("root", τ)
	return s, s.CompileWith(models)
}

func sameTable(a, b *fa.DFA) bool {
	as, aa, at := a.Table()
	bs, ba, bt := b.Table()
	return a.NumSymbols() == b.NumSymbols() && as == bs && reflect.DeepEqual(aa, ba) && reflect.DeepEqual(at, bt)
}

func TestModelTableRefcount(t *testing.T) {
	tab := NewModelTable()
	a := compileModel("a, b", regexpsym.MustParse("a, b"), true)
	b := compileModel("c*", regexpsym.MustParse("c*"), true)
	unkeyed := compileModel("", regexpsym.MustParse("d"), true)
	tab.Acquire([]*Model{a, b, unkeyed})
	tab.Acquire([]*Model{compileModel("a, b", regexpsym.MustParse("a, b"), true)})
	if got := tab.Lookup("a, b"); got != a {
		t.Fatal("second Acquire of a key replaced the first model")
	}
	if len(tab.Keys()) != 2 {
		t.Fatalf("keys %v, want the two keyed models", tab.Keys())
	}
	tab.Release([]*Model{a, b})
	if tab.Lookup("a, b") == nil || tab.Lookup("c*") != nil {
		t.Fatalf("after one release: keys %v, want only \"a, b\" (still referenced once)", tab.Keys())
	}
	tab.Release([]*Model{a})
	if len(tab.Keys()) != 0 {
		t.Fatalf("keys %v after releasing every reference", tab.Keys())
	}
	var nilTab *ModelTable
	if nilTab.Lookup("a, b") != nil {
		t.Fatal("nil table returned a model")
	}
}

// TestUnkeyableModelsCompileLocally: a model without a key is never served
// from, or inserted into, the table — even when its rendering collides
// with a keyed model's.
func TestUnkeyableModelsCompileLocally(t *testing.T) {
	tab := NewModelTable()
	s, err := oneTypeSchema(t, regexpsym.Epsilon{}, tab)
	if err != nil {
		t.Fatal(err)
	}
	tab.Acquire(s.Models())
	if tab.Lookup("EMPTY") == nil {
		t.Fatal("EMPTY model not acquired")
	}
	lbl, err := oneTypeSchema(t, regexpsym.Sym{Name: "EMPTY"}, tab)
	if err != nil {
		t.Fatal(err)
	}
	ty := lbl.Types[lbl.TypeByName("T")]
	if ty.Model.Key != "" || !ty.DFA.Accepts([]fa.Symbol{lbl.Alpha.Lookup("EMPTY")}) {
		t.Fatalf("label EMPTY resolved to the empty-content model: key %q", ty.Model.Key)
	}
}

var bigBound = regexp.MustCompile(`[0-9]{3}`)

// FuzzModelTable compiles a fuzzed content model with no table and with a
// warm table; the two automata must be identical, and equivalent to the
// pre-table compile straight over the schema's alphabet.
func FuzzModelTable(f *testing.F) {
	for _, seed := range []string{
		"a, b?, c*", "(a | b)*, c", "EMPTY", "a{2,3}, b{1,}", "(a, b) | (a, c)",
		"a, b, c | a, c, b | b, a, c", "(a?, (b | c)+)*", "(shipTo, billTo?, items)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Occurrence bounds and nested '+' expand multiplicatively and
		// non-1-unambiguous models determinize exponentially; keep inputs
		// small.
		if len(src) > 40 || strings.Count(src, "{")+strings.Count(src, "+") > 4 || bigBound.MatchString(src) {
			return
		}
		content, err := regexpsym.Parse(src)
		if err != nil {
			return
		}
		for _, l := range regexpsym.Labels(content) {
			if l == "root" {
				return
			}
		}
		none, err := oneTypeSchema(t, content, nil)
		if err != nil {
			return
		}
		cold, err := oneTypeSchema(t, content, NewModelTable())
		if err != nil {
			t.Fatalf("cold table rejects what no table accepts: %v", err)
		}
		warmTab := NewModelTable()
		warmTab.Acquire(cold.Models())
		warm, err := oneTypeSchema(t, content, warmTab)
		if err != nil {
			t.Fatalf("warm table rejects what no table accepts: %v", err)
		}
		τ := none.TypeByName("T")
		want := none.Types[τ].DFA
		for mode, s := range map[string]*Schema{"cold": cold, "warm": warm} {
			if !sameTable(s.Types[τ].DFA, want) {
				t.Fatalf("%s table: DFA for %q differs from the no-table compile", mode, src)
			}
		}
		universe := regexpsym.Compile(content, none.Alpha).Widen(want.NumSymbols())
		if !fa.Equivalent(want, universe) {
			t.Fatalf("relabelled DFA for %q not equivalent to the universe compile", src)
		}
	})
}
