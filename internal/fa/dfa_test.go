package fa

import (
	"math/rand"
	"strings"
	"testing"
)

// abStar: DFA over {a=0, b=1} accepting a*b (any number of a's then one b).
func abStarB() *DFA {
	return buildDFA(2, 2, 0, []int{1}, [][3]int{
		{0, 0, 0}, // a self-loop
		{0, 1, 1}, // b -> accept
	})
}

func TestAlphabetIntern(t *testing.T) {
	a := NewAlphabet()
	s1 := a.Intern("shipTo")
	s2 := a.Intern("billTo")
	if s1 == s2 {
		t.Fatal("distinct labels interned to the same symbol")
	}
	if got := a.Intern("shipTo"); got != s1 {
		t.Fatalf("re-intern changed symbol: %d != %d", got, s1)
	}
	if a.Lookup("items") != NoSymbol {
		t.Fatal("Lookup of unknown label should be NoSymbol")
	}
	if a.Name(s2) != "billTo" {
		t.Fatalf("Name(%d) = %q", s2, a.Name(s2))
	}
	if a.Size() != 2 {
		t.Fatalf("Size = %d, want 2", a.Size())
	}
	if got := a.String([]Symbol{s1, s2}); got != "shipTo billTo" {
		t.Fatalf("String = %q", got)
	}
}

func TestAlphabetZeroValue(t *testing.T) {
	var a Alphabet
	if a.Lookup("x") != NoSymbol {
		t.Fatal("zero-value Lookup should be NoSymbol")
	}
	if a.Intern("x") != 0 {
		t.Fatal("zero-value Intern should assign symbol 0")
	}
}

func TestDFAStepRunAccept(t *testing.T) {
	d := abStarB()
	cases := []struct {
		word []Symbol
		want bool
	}{
		{[]Symbol{}, false},
		{[]Symbol{1}, true},
		{[]Symbol{0, 1}, true},
		{[]Symbol{0, 0, 0, 1}, true},
		{[]Symbol{1, 1}, false},
		{[]Symbol{0}, false},
		{[]Symbol{1, 0}, false},
	}
	for _, c := range cases {
		if got := d.Accepts(c.word); got != c.want {
			t.Errorf("Accepts(%v) = %v, want %v", c.word, got, c.want)
		}
	}
	if d.Step(Dead, 0) != Dead {
		t.Fatal("Step from Dead must stay Dead")
	}
	if d.IsAccept(Dead) {
		t.Fatal("Dead must not be accepting")
	}
}

func TestTotalizeAndComplement(t *testing.T) {
	d := abStarB()
	tot, sink := d.Totalize()
	if sink == Dead {
		t.Fatal("expected a sink to be added")
	}
	for s := 0; s < tot.NumStates(); s++ {
		for sym := 0; sym < tot.NumSymbols(); sym++ {
			if tot.Step(s, Symbol(sym)) == Dead {
				t.Fatalf("Totalize left Dead edge at (%d,%d)", s, sym)
			}
		}
	}
	sameLanguage(t, d, tot, 5)

	comp := d.Complement()
	enumWords(2, 5, func(w []Symbol) {
		if comp.Accepts(w) == d.Accepts(w) {
			t.Fatalf("complement agrees with original on %v", w)
		}
	})
}

func TestTotalizeNoSinkNeeded(t *testing.T) {
	// Fully total single-state automaton accepting everything.
	d := buildDFA(2, 1, 0, []int{0}, [][3]int{{0, 0, 0}, {0, 1, 0}})
	tot, sink := d.Totalize()
	if sink != Dead {
		t.Fatal("no sink should be added for a total DFA")
	}
	if tot.NumStates() != 1 {
		t.Fatalf("states = %d, want 1", tot.NumStates())
	}
}

func TestIsEmpty(t *testing.T) {
	empty := NewDFA(2)
	if !empty.IsEmpty() {
		t.Fatal("stateless DFA should be empty")
	}
	// Accepting state unreachable.
	d := buildDFA(2, 2, 0, []int{1}, nil)
	if !d.IsEmpty() {
		t.Fatal("unreachable accept should make language empty")
	}
	if abStarB().IsEmpty() {
		t.Fatal("a*b is nonempty")
	}
}

func TestLiveStates(t *testing.T) {
	// 0 -a-> 1(acc), 0 -b-> 2 (trap: 2 -a-> 2)
	d := buildDFA(2, 3, 0, []int{1}, [][3]int{
		{0, 0, 1},
		{0, 1, 2},
		{2, 0, 2},
	})
	live := d.LiveStates()
	if !live[0] || !live[1] {
		t.Fatalf("states 0,1 should be live: %v", live)
	}
	if live[2] {
		t.Fatal("trap state 2 should be dead")
	}
}

func TestTrim(t *testing.T) {
	// State 3 unreachable; state 2 dead.
	d := buildDFA(2, 4, 0, []int{1, 3}, [][3]int{
		{0, 0, 1},
		{0, 1, 2},
		{2, 0, 2},
		{3, 0, 1},
	})
	tr := d.Trim()
	if tr.NumStates() != 2 {
		t.Fatalf("trimmed states = %d, want 2", tr.NumStates())
	}
	sameLanguage(t, d, tr, 5)
}

func TestTrimEmptyLanguage(t *testing.T) {
	d := buildDFA(2, 1, 0, nil, [][3]int{{0, 0, 0}})
	tr := d.Trim()
	if tr.Start() != Dead {
		t.Fatalf("empty language should trim to start=Dead, got %d", tr.Start())
	}
	if !tr.IsEmpty() {
		t.Fatal("trimmed empty language should be empty")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := abStarB()
	c := d.Clone()
	c.SetAccept(1, false)
	c.SetTransition(0, 0, Dead)
	if !d.IsAccept(1) || d.Step(0, 0) != 0 {
		t.Fatal("mutating clone affected original")
	}
}

func TestDump(t *testing.T) {
	d := abStarB()
	out := d.Dump([]string{"a", "b"})
	for _, want := range []string{"q0", "a->q0", "b->q1", "* q1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Dump missing %q:\n%s", want, out)
		}
	}
}

func TestTrimRandomPreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		d := randDFA(rng, 6, 2)
		sameLanguage(t, d, d.Trim(), 6)
	}
}

func TestComplementRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		d := randDFA(rng, 5, 2)
		comp := d.Complement()
		enumWords(2, 5, func(w []Symbol) {
			if comp.Accepts(w) == d.Accepts(w) {
				t.Fatalf("complement agrees with original on %v", w)
			}
		})
	}
}

func TestWiden(t *testing.T) {
	d := abStarB() // 2 symbols
	w := d.Widen(5)
	if w.NumSymbols() != 5 {
		t.Fatalf("widened symbols = %d", w.NumSymbols())
	}
	// Same language over the original symbols (the original automaton
	// cannot be driven over the widened alphabet).
	enumWords(2, 5, func(word []Symbol) {
		if d.Accepts(word) != w.Accepts(word) {
			t.Fatalf("widened automaton differs on %v", word)
		}
	})
	// New symbols lead nowhere.
	if w.Step(0, 4) != Dead {
		t.Fatal("new symbol should have no transition")
	}
	// Widening to the same size returns the receiver.
	if d.Widen(2) != d {
		t.Fatal("same-size widen should be a no-op")
	}
}

func TestWidenPanicsOnShrink(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	abStarB().Widen(1)
}

func TestRelabel(t *testing.T) {
	// Local automaton for "x y*" over symbols {x=0, y=1}.
	local := buildDFA(2, 2, 0, []int{1}, [][3]int{{0, 0, 1}, {1, 1, 1}})
	// Onto a 4-symbol alphabet with x=3, y=1.
	d := local.Relabel([]Symbol{3, 1}, 4)
	if d.NumSymbols() != 4 || d.NumStates() != 2 {
		t.Fatalf("relabelled to %d symbols, %d states", d.NumSymbols(), d.NumStates())
	}
	for _, c := range []struct {
		word []Symbol
		want bool
	}{
		{[]Symbol{3}, true}, {[]Symbol{3, 1, 1}, true}, {[]Symbol{0}, false},
		{[]Symbol{3, 0}, false}, {[]Symbol{1}, false}, {nil, false},
	} {
		if got := d.Accepts(c.word); got != c.want {
			t.Errorf("Accepts(%v) = %v, want %v", c.word, got, c.want)
		}
	}
	// The source automaton is untouched.
	if local.NumSymbols() != 2 || !local.Accepts([]Symbol{0, 1}) {
		t.Fatal("Relabel mutated its receiver")
	}
}
