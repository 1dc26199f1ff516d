package fa

// IDA is an immediate decision automaton (EDBT'04 §4.1, Definitions 6–8):
// a DFA augmented with disjoint state sets IA (immediate accept) and IR
// (immediate reject). A scan may stop with a definitive answer as soon as
// the current state falls in either set, without reading the rest of the
// input.
type IDA struct {
	D  *DFA
	IA []bool // immediate-accept states
	IR []bool // immediate-reject states

	// Product bookkeeping, set when the IDA was derived from a product
	// automaton (DeriveCastIDA, DeriveReachableCastIDA); nil for
	// single-automaton IDAs.
	Pairs *Product
}

// Decision is the verdict of an IDA scan.
type Decision int

const (
	// Undecided: the scan consumed the whole input without hitting IA/IR;
	// the verdict is the ordinary acceptance of the final state.
	Undecided Decision = iota
	// ImmediateAccept: an IA state was reached on a strict prefix.
	ImmediateAccept
	// ImmediateReject: an IR state was reached.
	ImmediateReject
)

func (d Decision) String() string {
	switch d {
	case ImmediateAccept:
		return "immediate-accept"
	case ImmediateReject:
		return "immediate-reject"
	default:
		return "undecided"
	}
}

// DeriveIDA builds the immediate decision automaton of a single DFA
// (Definition 6): IA = states whose right language is Σ*, IR = dead states
// (no accepting state reachable). Both sets are computed in time linear in
// the automaton size.
func DeriveIDA(d *DFA) *IDA {
	n := d.NumStates()
	ida := &IDA{D: d, IA: make([]bool, n), IR: make([]bool, n)}

	// IR: states from which no accepting state is reachable.
	live := d.LiveStates()
	for s := 0; s < n; s++ {
		ida.IR[s] = !live[s]
	}

	// IA: L(q) = Σ* iff every state reachable from q is accepting AND the
	// transition function never falls into the implicit dead sink from any
	// reachable state. Compute the complement by reverse reachability from
	// "deficient" states: non-accepting states and states with a Dead edge.
	deficient := make([]bool, n)
	for s := 0; s < n; s++ {
		if !d.accept[s] {
			deficient[s] = true
			continue
		}
		for sym := 0; sym < d.numSymbols; sym++ {
			if d.Step(s, Symbol(sym)) == Dead {
				deficient[s] = true
				break
			}
		}
	}
	canReachDeficient := reverseReach(d, deficient)
	for s := 0; s < n; s++ {
		ida.IA[s] = !canReachDeficient[s] && !ida.IR[s]
	}
	return ida
}

// DeriveCastIDA builds c_immed (Definition 7) from source automaton a and
// target automaton b: the intersection automaton of a and b with
//
//	IA = { (q_a, q_b) : L(q_a) ⊆ L(q_b) }   (equivalently, Definition 8:
//	      no pair (q1, q2) with q1 ∈ F_a and q2 ∉ F_b is reachable)
//	IR = dead states of the product.
//
// For inputs known to be in L(a), scanning with the result decides
// membership in L(b) and does so optimally early (Proposition 3). Pairs
// where both IA and IR conditions hold (only possible when the a-component
// is dead, i.e. the in-L(a) promise is already broken) are classified IR.
//
// The product covers the full pair space Q_a × Q_b so the automaton can be
// entered at an arbitrary pair, as the with-modifications scan requires.
// A scan that always starts at the start pair needs only
// DeriveReachableCastIDA.
func DeriveCastIDA(a, b *DFA) *IDA {
	return castIDA(IntersectAll(a, b))
}

// DeriveReachableCastIDA builds c_immed over the pairs reachable from
// (start_a, start_b) only. IA and IR are properties of a state's forward
// closure, and the reachable set is closed under transitions, so every
// state it keeps has the IA/IR/accept status it has in DeriveCastIDA's
// full product: a scan from the start takes the same decisions in both.
// Its size is linear in the reachable pairs rather than |Q_a|·|Q_b|.
func DeriveReachableCastIDA(a, b *DFA) *IDA {
	return castIDA(Intersect(a, b))
}

func castIDA(p *Product) *IDA {
	a, b := p.A, p.B
	n := p.DFA.NumStates()
	ida := &IDA{D: p.DFA, IA: make([]bool, n), IR: make([]bool, n), Pairs: p}

	live := p.DFA.LiveStates()
	for s := 0; s < n; s++ {
		ida.IR[s] = !live[s]
	}

	// Definition 8: (qa,qb) ∈ IA iff no "bad" pair — qa accepting in a but
	// qb not accepting in b — is reachable from it in the product. Computed
	// by one reverse reachability pass from the bad pairs.
	bad := make([]bool, n)
	for s := 0; s < n; s++ {
		qa, qb := p.StatePair(s)
		if a.IsAccept(qa) && !b.IsAccept(qb) {
			bad[s] = true
		}
	}
	canReachBad := reverseReach(p.DFA, bad)
	for s := 0; s < n; s++ {
		ida.IA[s] = !canReachBad[s] && !ida.IR[s]
	}
	return ida
}

// reverseReach returns, per state, whether some state marked in seed is
// reachable from it (including itself) following d's transitions forward.
func reverseReach(d *DFA, seed []bool) []bool {
	n := d.NumStates()
	radj := make([][]int32, n)
	for s := 0; s < n; s++ {
		for sym := 0; sym < d.numSymbols; sym++ {
			t := d.Step(s, Symbol(sym))
			if t != Dead {
				radj[t] = append(radj[t], int32(s))
			}
		}
	}
	reach := make([]bool, n)
	var stack []int
	for s := 0; s < n; s++ {
		if seed[s] {
			reach[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, pdc := range radj[s] {
			if !reach[pdc] {
				reach[pdc] = true
				stack = append(stack, int(pdc))
			}
		}
	}
	return reach
}

// Classify returns the immediate verdict for being in state s, if any.
// Classify(Dead) is ImmediateReject: the implicit sink is dead.
func (ida *IDA) Classify(s int) Decision {
	if s == Dead || ida.IR[s] {
		return ImmediateReject
	}
	if ida.IA[s] {
		return ImmediateAccept
	}
	return Undecided
}

// ScanResult reports the outcome of an IDA scan.
type ScanResult struct {
	Accepted bool
	Decision Decision // how the verdict was reached
	Consumed int      // symbols consumed before the verdict
	State    int      // state after the last consumed symbol (Dead possible)
}

// Scan runs word through the IDA starting from state start, stopping as
// soon as an IA or IR state is entered. If the input is exhausted without
// an immediate decision, the verdict is ordinary acceptance of the final
// state.
func (ida *IDA) Scan(start int, word []Symbol) ScanResult {
	state := start
	if dec := ida.Classify(state); dec != Undecided {
		return ScanResult{Accepted: dec == ImmediateAccept, Decision: dec, Consumed: 0, State: state}
	}
	for i, sym := range word {
		state = ida.D.Step(state, sym)
		if dec := ida.Classify(state); dec != Undecided {
			return ScanResult{Accepted: dec == ImmediateAccept, Decision: dec, Consumed: i + 1, State: state}
		}
	}
	return ScanResult{Accepted: ida.D.IsAccept(state), Decision: Undecided, Consumed: len(word), State: state}
}

// ScanFromStart is Scan from the automaton's start state.
func (ida *IDA) ScanFromStart(word []Symbol) ScanResult {
	return ida.Scan(ida.D.Start(), word)
}

// PairState returns the product state id for the component pair (qa, qb),
// or Dead if that pair was never materialized (it is then unreachable from
// the product start or both-dead). Only valid for cast IDAs.
func (ida *IDA) PairState(qa, qb int) int {
	if ida.Pairs == nil {
		panic("fa: PairState on a non-product IDA")
	}
	return ida.Pairs.Lookup(qa, qb)
}
