package schema

import "repro/internal/fa"

// Productive reports, per TypeID, whether valid(τ) ≠ ∅. Populated by
// Compile (the §3 fixpoint); nil before compilation.
func (s *Schema) Productive() []bool { return s.productive }

// pruneNonProductive runs the §3 productivity analysis and rewrite:
//
//  1. Simple types are productive.
//  2. A complex type τ is productive iff L(regexp_τ) ∩ ProdLabels_τ* ≠ ∅,
//     where ProdLabels_τ = { σ : types_τ(σ) is productive }.
//  3. Iterate to a fixpoint.
//
// Afterwards each complex type's automaton is restricted to
// ProdLabels_τ* — the paper's rewrite producing a schema whose types are
// all productive without changing the set of valid documents. Types that
// remain non-productive keep an empty-language automaton, so validation
// against them fails as it must.
func (s *Schema) pruneNonProductive() error {
	n := len(s.Types)
	prod := make([]bool, n)
	for _, t := range s.Types {
		if t.Simple {
			prod[t.ID] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, t := range s.Types {
			if t.Simple || prod[t.ID] {
				continue
			}
			if fa.NonemptyRestricted(t.DFA, s.allowedMask(t, prod)) {
				prod[t.ID] = true
				changed = true
			}
		}
	}
	for _, t := range s.Types {
		if t.Simple || allChildrenProductive(t, prod) {
			// Nothing to restrict: the automaton moves only on labels of
			// its content model, all bound in Child, and is already trim.
			continue
		}
		t.DFA = fa.RestrictSymbols(t.DFA, s.allowedMask(t, prod))
	}
	s.productive = prod
	return nil
}

// allowedMask returns the per-symbol mask of labels whose assigned child
// type is currently known productive.
func (s *Schema) allowedMask(t *Type, prod []bool) []bool {
	mask := make([]bool, s.Alpha.Size())
	for sym, child := range t.Child {
		if prod[child] {
			mask[sym] = true
		}
	}
	return mask
}

func allChildrenProductive(t *Type, prod []bool) bool {
	for _, child := range t.Child {
		if !prod[child] {
			return false
		}
	}
	return true
}
