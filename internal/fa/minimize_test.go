package fa

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMinimizePreservesLanguageRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 80; i++ {
		d := randDFA(rng, 7, 2)
		m := Minimize(d)
		sameLanguage(t, d, m, 7)
	}
}

func TestMinimizeIsIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 40; i++ {
		d := randDFA(rng, 7, 2)
		m1 := Minimize(d)
		m2 := Minimize(m1)
		if m1.NumStates() != m2.NumStates() {
			t.Fatalf("iter %d: re-minimizing changed state count %d -> %d",
				i, m1.NumStates(), m2.NumStates())
		}
		sameLanguage(t, m1, m2, 7)
	}
}

func TestMinimizeMergesEquivalentStates(t *testing.T) {
	// Two redundant accepting states reachable on a and b respectively,
	// both behaving identically (no out-transitions): minimal DFA needs 2
	// states (start + one accept).
	d := buildDFA(2, 3, 0, []int{1, 2}, [][3]int{
		{0, 0, 1},
		{0, 1, 2},
	})
	m := Minimize(d)
	if m.NumStates() != 2 {
		t.Fatalf("minimized states = %d, want 2\n%s", m.NumStates(), m.Dump(nil))
	}
	sameLanguage(t, d, m, 4)
}

func TestMinimizeKnownMinimalSize(t *testing.T) {
	// Language: strings over {a,b} whose count of a's ≡ 0 (mod 3).
	// Minimal DFA has exactly 3 states.
	d := buildDFA(2, 3, 0, []int{0}, [][3]int{
		{0, 0, 1}, {1, 0, 2}, {2, 0, 0},
		{0, 1, 0}, {1, 1, 1}, {2, 1, 2},
	})
	m := Minimize(d)
	if m.NumStates() != 3 {
		t.Fatalf("minimized states = %d, want 3", m.NumStates())
	}
	sameLanguage(t, d, m, 7)
}

func TestMinimizeEmptyLanguage(t *testing.T) {
	d := buildDFA(2, 2, 0, nil, [][3]int{{0, 0, 1}, {1, 1, 0}})
	m := Minimize(d)
	if !m.IsEmpty() {
		t.Fatal("empty language must minimize to empty")
	}
	if m.NumStates() != 0 {
		t.Fatalf("empty language should have 0 explicit states, got %d", m.NumStates())
	}
}

func TestMinimizeUniversalLanguage(t *testing.T) {
	// Σ* over 2 symbols: single accepting state with self-loops.
	d := buildDFA(2, 2, 0, []int{0, 1}, [][3]int{
		{0, 0, 1}, {0, 1, 1}, {1, 0, 0}, {1, 1, 0},
	})
	m := Minimize(d)
	if m.NumStates() != 1 {
		t.Fatalf("Σ* should minimize to 1 state, got %d", m.NumStates())
	}
	if !m.Accepts(nil) || !m.Accepts([]Symbol{0, 1, 0}) {
		t.Fatal("Σ* must accept everything")
	}
}

func TestEquivalent(t *testing.T) {
	d1 := abStarB()
	// Same language built differently (extra redundant state).
	d2 := buildDFA(2, 3, 0, []int{2}, [][3]int{
		{0, 0, 1},
		{1, 0, 1},
		{0, 1, 2},
		{1, 1, 2},
	})
	if !Equivalent(d1, d2) {
		t.Fatal("equivalent automata reported different")
	}
	d3 := abStarB()
	d3.SetAccept(0, true) // now also accepts ε and a*
	if Equivalent(d1, d3) {
		t.Fatal("different languages reported equivalent")
	}
}

// quickDFA adapts random DFA generation to testing/quick.
type quickDFA struct{ d *DFA }

func (quickDFA) Generate(rng *rand.Rand, size int) reflectValue {
	n := 2 + rng.Intn(6)
	return reflectValueOf(quickDFA{randDFA(rng, n, 2)})
}

func TestQuickMinimizeNeverGrows(t *testing.T) {
	f := func(q quickDFA) bool {
		m := Minimize(q.d)
		return m.NumStates() <= q.d.NumStates()
	}
	if err := quick.Check(f, quickConfig(200)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEquivalenceWithSelf(t *testing.T) {
	f := func(q quickDFA) bool {
		return Equivalent(q.d, Minimize(q.d))
	}
	if err := quick.Check(f, quickConfig(200)); err != nil {
		t.Fatal(err)
	}
}

// mooreMinimize is an independent O(n²) partition-refinement minimizer
// (Moore's algorithm) used to cross-check Hopcroft's result. It returns the
// number of equivalence classes among reachable, live states of the
// totalized automaton, plus one for the sink class when the trimmed
// automaton is partial (the implicit dead state is not counted).
func mooreMinimalStates(d *DFA) int {
	t := d.Trim()
	if t.Start() == Dead {
		return 0
	}
	total, sink := t.Totalize()
	n := total.NumStates()
	// class[s] per state; start with accept/non-accept.
	class := make([]int, n)
	for s := 0; s < n; s++ {
		if total.IsAccept(s) {
			class[s] = 1
		}
	}
	for {
		// signature = (class, successor classes...)
		sig := map[string]int{}
		next := make([]int, n)
		for s := 0; s < n; s++ {
			key := fmt.Sprintf("%d", class[s])
			for sym := 0; sym < total.NumSymbols(); sym++ {
				key += fmt.Sprintf(",%d", class[total.Step(s, Symbol(sym))])
			}
			id, ok := sig[key]
			if !ok {
				id = len(sig)
				sig[key] = id
			}
			next[s] = id
		}
		same := true
		for s := 0; s < n; s++ {
			if next[s] != class[s] {
				same = false
			}
		}
		class = next
		if same {
			break
		}
	}
	classes := map[int]bool{}
	for s := 0; s < n; s++ {
		classes[class[s]] = true
	}
	count := len(classes)
	if sink != Dead {
		count-- // the sink's class corresponds to the implicit dead state
	}
	return count
}

func TestHopcroftMatchesMoore(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < 150; i++ {
		d := randDFA(rng, 8, 2)
		hop := Minimize(d).NumStates()
		moore := mooreMinimalStates(d)
		if hop != moore {
			t.Fatalf("iter %d: Hopcroft %d states, Moore %d states\n%s",
				i, hop, moore, d.Dump(nil))
		}
	}
}

// TestMinimizeCanonical: minimizing automata that differ only in state
// numbering yields identical tables, not merely isomorphic ones.
func TestMinimizeCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		d := randDFA(rng, 1+rng.Intn(8), 1+rng.Intn(3))
		perm := rng.Perm(d.NumStates())
		p := NewDFA(d.NumSymbols())
		inv := make([]int, len(perm))
		for old, nu := range perm {
			inv[nu] = old
		}
		for nu := range inv {
			p.AddState(d.IsAccept(inv[nu]))
		}
		for old := 0; old < d.NumStates(); old++ {
			for sym := 0; sym < d.NumSymbols(); sym++ {
				if to := d.Step(old, Symbol(sym)); to != Dead {
					p.SetTransition(perm[old], Symbol(sym), perm[to])
				}
			}
		}
		if d.Start() != Dead {
			p.SetStart(perm[d.Start()])
		}
		ms, ma, mt := Minimize(d).Table()
		ps, pa, pt := Minimize(p).Table()
		if ms != ps || fmt.Sprint(ma, mt) != fmt.Sprint(pa, pt) {
			t.Fatalf("case %d: renumbered automaton minimizes differently\n%s\n%s", i, Minimize(d).Dump(nil), Minimize(p).Dump(nil))
		}
	}
}
