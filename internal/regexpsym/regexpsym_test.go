package regexpsym

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fa"
)

func words(alpha []string, maxLen int, fn func([]string)) {
	var rec func(prefix []string)
	rec = func(prefix []string) {
		fn(prefix)
		if len(prefix) == maxLen {
			return
		}
		for _, a := range alpha {
			rec(append(prefix, a))
		}
	}
	rec(nil)
}

func toSymbols(alpha *fa.Alphabet, w []string) []fa.Symbol {
	out := make([]fa.Symbol, len(w))
	for i, l := range w {
		s := alpha.Lookup(l)
		if s == fa.NoSymbol {
			s = alpha.Intern(l)
		}
		out[i] = s
	}
	return out
}

// checkCompiled asserts that the compiled DFA agrees with the reference
// matcher on all words over alpha up to maxLen.
func checkCompiled(t *testing.T, src string, alpha []string, maxLen int) {
	t.Helper()
	n := MustParse(src)
	ab := fa.NewAlphabet()
	for _, l := range alpha {
		ab.Intern(l)
	}
	d := Compile(n, ab)
	words(alpha, maxLen, func(w []string) {
		want := refMatch(n, w)
		got := d.Accepts(toSymbols(ab, w))
		if got != want {
			t.Fatalf("%s on %v: DFA=%v ref=%v", src, w, got, want)
		}
	})
}

func TestParseAndCompileBasics(t *testing.T) {
	cases := []string{
		"a",
		"EMPTY",
		"a, b",
		"a | b",
		"a?",
		"a*",
		"a+",
		"(a, b) | c",
		"(a | b)*, c",
		"a{2,4}",
		"a{3}",
		"a{2,}",
		"(a, b?){1,2}",
		"(shipTo, billTo?, items)",
		"(a | (b, c))+",
	}
	for _, src := range cases {
		checkCompiled(t, src, []string{"a", "b", "c", "shipTo", "billTo", "items"}[:3], 5)
	}
}

func TestParsePurchaseOrderModel(t *testing.T) {
	checkCompiled(t, "(shipTo, billTo?, items)",
		[]string{"shipTo", "billTo", "items"}, 4)
	checkCompiled(t, "(shipTo, billTo, items)",
		[]string{"shipTo", "billTo", "items"}, 4)
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(a",
		"a)",
		"a,,b",
		"a |",
		"| a",
		"a{2,1}",
		"a{",
		"a{x}",
		"a{1,2",
		"?",
		"a b", // juxtaposition without comma
		"a, 3",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"a",
		"EMPTY",
		"a, b, c",
		"a | b | c",
		"a?",
		"a*",
		"a+",
		"a{2,4}",
		"a{3}",
		"a{2,}",
		"(a | b)*, c",
		"(a, b) | c",
	}
	for _, src := range cases {
		n := MustParse(src)
		rendered := String(n)
		n2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", rendered, src, err)
		}
		// Languages must coincide.
		ab := fa.NewAlphabet()
		d1 := Compile(n, ab)
		d2 := Compile(n2, ab)
		if !fa.Equivalent(d1, d2) {
			t.Fatalf("round-trip changed language: %q -> %q", src, rendered)
		}
	}
}

func TestLabels(t *testing.T) {
	n := MustParse("(shipTo, billTo?, items, shipTo)")
	got := Labels(n)
	want := []string{"shipTo", "billTo", "items"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Labels = %v, want %v", got, want)
	}
	if len(Labels(Epsilon{})) != 0 {
		t.Fatal("EMPTY has no labels")
	}
}

func TestNullable(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"EMPTY", true},
		{"a", false},
		{"a?", true},
		{"a*", true},
		{"a+", false},
		{"a, b?", false},
		{"a?, b?", true},
		{"a | b?", true},
		{"a{0,3}", true},
		{"a{1,3}", false},
	}
	for _, c := range cases {
		if got := Nullable(MustParse(c.src)); got != c.want {
			t.Errorf("Nullable(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestIsOneUnambiguous(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"(shipTo, billTo?, items)", true},
		{"(a | b)*", true},
		{"(a, b) | (a, c)", false}, // classic 1-ambiguity
		{"(a?, a)", false},         // a could be first or second position
		{"a*, a", false},           // ambiguous
		{"(b, a) | (c, a)", true},  // distinct first symbols
		{"a, (b | c), d", true},
	}
	for _, c := range cases {
		if got := IsOneUnambiguous(MustParse(c.src)); got != c.want {
			t.Errorf("IsOneUnambiguous(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestGlushkovVsThompson(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	labels := []string{"a", "b", "c"}
	for i := 0; i < 120; i++ {
		n := randExpr(rng, 3, labels)
		a1 := fa.NewAlphabet()
		for _, l := range labels {
			a1.Intern(l)
		}
		d1 := Compile(n, a1)
		d2 := CompileThompson(n, a1)
		if !fa.Equivalent(d1, d2) {
			t.Fatalf("iter %d: Glushkov and Thompson disagree on %s", i, String(n))
		}
	}
}

func TestCompileMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	labels := []string{"a", "b"}
	for i := 0; i < 80; i++ {
		n := randExpr(rng, 3, labels)
		ab := fa.NewAlphabet()
		for _, l := range labels {
			ab.Intern(l)
		}
		d := Compile(n, ab)
		words(labels, 5, func(w []string) {
			want := refMatch(n, w)
			got := d.Accepts(toSymbols(ab, w))
			if got != want {
				t.Fatalf("iter %d expr %s on %v: DFA=%v ref=%v",
					i, String(n), w, got, want)
			}
		})
	}
}

func TestCompileUnminimizedEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	labels := []string{"a", "b"}
	for i := 0; i < 40; i++ {
		n := randExpr(rng, 3, labels)
		ab := fa.NewAlphabet()
		d1 := Compile(n, ab)
		d2 := CompileUnminimized(n, ab)
		if !fa.Equivalent(d1, d2) {
			t.Fatalf("iter %d: minimized and unminimized differ on %s", i, String(n))
		}
		if d1.NumStates() > d2.NumStates() {
			t.Fatalf("iter %d: minimization grew the automaton", i)
		}
	}
}

func TestOccurrenceBoundExpansion(t *testing.T) {
	// a{2,4}: exactly 2..4 a's.
	ab := fa.NewAlphabet()
	d := Compile(MustParse("a{2,4}"), ab)
	sym := ab.Lookup("a")
	for count := 0; count <= 6; count++ {
		w := make([]fa.Symbol, count)
		for i := range w {
			w[i] = sym
		}
		want := count >= 2 && count <= 4
		if d.Accepts(w) != want {
			t.Fatalf("a{2,4} on %d a's: got %v want %v", count, d.Accepts(w), want)
		}
	}
}

func TestOccurrenceUnboundedMin(t *testing.T) {
	ab := fa.NewAlphabet()
	d := Compile(MustParse("a{3,}"), ab)
	sym := ab.Lookup("a")
	for count := 0; count <= 7; count++ {
		w := make([]fa.Symbol, count)
		for i := range w {
			w[i] = sym
		}
		want := count >= 3
		if d.Accepts(w) != want {
			t.Fatalf("a{3,} on %d a's: got %v want %v", count, d.Accepts(w), want)
		}
	}
}

func TestConstructorHelpers(t *testing.T) {
	// Cat flattens and drops Epsilon.
	n := Cat(Lbl("a"), Cat(Lbl("b"), Lbl("c")), Epsilon{})
	if String(n) != "a, b, c" {
		t.Fatalf("Cat render = %q", String(n))
	}
	if _, ok := Cat().(Epsilon); !ok {
		t.Fatal("empty Cat should be Epsilon")
	}
	if String(Cat(Lbl("x"))) != "x" {
		t.Fatal("singleton Cat should unwrap")
	}
	n = Or(Lbl("a"), Or(Lbl("b"), Lbl("c")))
	if String(n) != "a | b | c" {
		t.Fatalf("Or render = %q", String(n))
	}
	if String(Opt(Lbl("a"))) != "a?" || String(Star(Lbl("a"))) != "a*" ||
		String(Plus(Lbl("a"))) != "a+" {
		t.Fatal("postfix constructors render wrong")
	}
	if String(Bound(Lbl("a"), 2, Unbounded)) != "a{2,}" {
		t.Fatal("Bound render wrong")
	}
	if String(Bound(Lbl("a"), 2, 2)) != "a{2}" {
		t.Fatal("exact Bound render wrong")
	}
}

func TestValidName(t *testing.T) {
	good := []string{"a", "shipTo", "xsd:element", "_x", "a-b.c", "日本"}
	for _, g := range good {
		if !ValidName(g) {
			t.Errorf("ValidName(%q) should be true", g)
		}
	}
	bad := []string{"", "1a", "-a", ".a", "a b", "a\tb"}
	for _, b := range bad {
		if ValidName(b) {
			t.Errorf("ValidName(%q) should be false", b)
		}
	}
}

// randExpr generates a random expression of bounded depth.
func randExpr(rng *rand.Rand, depth int, labels []string) Node {
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(8) == 0 {
			return Epsilon{}
		}
		return Lbl(labels[rng.Intn(len(labels))])
	}
	switch rng.Intn(6) {
	case 0:
		return Cat(randExpr(rng, depth-1, labels), randExpr(rng, depth-1, labels))
	case 1:
		return Or(randExpr(rng, depth-1, labels), randExpr(rng, depth-1, labels))
	case 2:
		return Opt(randExpr(rng, depth-1, labels))
	case 3:
		return Star(randExpr(rng, depth-1, labels))
	case 4:
		return Plus(randExpr(rng, depth-1, labels))
	default:
		min := rng.Intn(3)
		max := min + rng.Intn(3)
		if rng.Intn(3) == 0 {
			return Bound(randExpr(rng, depth-1, labels), min, Unbounded)
		}
		return Bound(randExpr(rng, depth-1, labels), min, max)
	}
}

func TestKeyRejectsAmbiguousRenderings(t *testing.T) {
	for _, n := range []Node{
		Sym{Name: "EMPTY"},    // renders like Epsilon
		Alt{},                 // renders like an empty sequence
		Seq{},                 // renders as nothing
		Sym{Name: "a, b"},     // renders like a sequence
		Star(Alt{}),           // nested
		Bound(Lbl("a"), 2, 1), // Parse rejects max < min
	} {
		if key, ok := Key(n); ok {
			t.Errorf("Key(%#v) = %q, ok; want no key", n, key)
		}
	}
	if key, ok := Key(MustParse("(a | b)*, c{2,3}, EMPTY")); !ok || key != "(a | b)*, c{2,3}, EMPTY" {
		t.Errorf("Key = %q, %v", key, ok)
	}
}
