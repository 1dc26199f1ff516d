package fa

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// CheckReachableCastIDA checks that reach, a c_immed built over the pairs
// reachable from the start pair, simulates full, the c_immed over the full
// Q_a × Q_b product of the same automata: both start at (start_a,
// start_b); every state of reach is reachable from its start and maps to
// the full product's state for the same (q_a, q_b), with the same
// Classify verdict and accept flag; and each successor maps to the full
// product's successor. A scan from the start then takes the same steps
// and decisions on either automaton.
func CheckReachableCastIDA(reach, full *IDA) error {
	a, b := full.Pairs.A, full.Pairs.B
	if reach.Pairs.A != a || reach.Pairs.B != b {
		return fmt.Errorf("the two products are over different automata")
	}
	rs := reach.D.Start()
	if rs == Dead {
		if full.D.Start() != Dead || reach.D.NumStates() != 0 {
			return fmt.Errorf("reachable product has no start, full product starts at %d", full.D.Start())
		}
		return nil
	}
	if qa, qb := reach.Pairs.StatePair(rs); qa != a.Start() || qb != b.Start() {
		return fmt.Errorf("reachable start is (%d,%d), want (%d,%d)", qa, qb, a.Start(), b.Start())
	}
	image := func(s int) int { return full.PairState(reach.Pairs.StatePair(s)) }
	if image(rs) != full.D.Start() {
		return fmt.Errorf("reachable start maps to full state %d, full start is %d", image(rs), full.D.Start())
	}
	seen := make([]bool, reach.D.NumStates())
	seen[rs] = true
	stack := []int{rs}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		qa, qb := reach.Pairs.StatePair(s)
		fs := image(s)
		if fs == Dead {
			return fmt.Errorf("pair (%d,%d) is missing from the full product", qa, qb)
		}
		if got, want := reach.Classify(s), full.Classify(fs); got != want {
			return fmt.Errorf("pair (%d,%d) classifies %v, full product %v", qa, qb, got, want)
		}
		if got, want := reach.D.IsAccept(s), full.D.IsAccept(fs); got != want {
			return fmt.Errorf("pair (%d,%d) accepts %v, full product %v", qa, qb, got, want)
		}
		for sym := 0; sym < reach.D.NumSymbols(); sym++ {
			rt, ft := reach.D.Step(s, Symbol(sym)), full.D.Step(fs, Symbol(sym))
			if rt == Dead {
				if ft != Dead {
					return fmt.Errorf("pair (%d,%d) symbol %d: no successor, full product has one", qa, qb, sym)
				}
				continue
			}
			if image(rt) != ft {
				return fmt.Errorf("pair (%d,%d) symbol %d: successor maps to %d, full product steps to %d", qa, qb, sym, image(rt), ft)
			}
			if !seen[rt] {
				seen[rt] = true
				stack = append(stack, rt)
			}
		}
	}
	for s, ok := range seen {
		if !ok {
			qa, qb := reach.Pairs.StatePair(s)
			return fmt.Errorf("pair (%d,%d) is not reachable from the start pair", qa, qb)
		}
	}
	return nil
}

// Property: on random partial DFA pairs, the reachable c_immed simulates
// the full-product one.
func TestQuickReachableCastIDASimulatesFull(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		a, b := randDFA(rng, 1+rng.Intn(8), k), randDFA(rng, 1+rng.Intn(8), k)
		if err := CheckReachableCastIDA(DeriveReachableCastIDA(a, b), DeriveCastIDA(a, b)); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, quickConfig(500)); err != nil {
		t.Fatal(err)
	}
}

// An automaton with no states has a Dead start; the product then has no
// start pair only when both do.
func TestReachableCastIDADeadStart(t *testing.T) {
	empty := NewDFA(2)
	d := randDFA(rand.New(rand.NewSource(3)), 4, 2)
	for _, p := range [][2]*DFA{{empty, empty}, {empty, d}, {d, empty}} {
		if err := CheckReachableCastIDA(DeriveReachableCastIDA(p[0], p[1]), DeriveCastIDA(p[0], p[1])); err != nil {
			t.Fatal(err)
		}
	}
}
