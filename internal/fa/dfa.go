package fa

import (
	"fmt"
	"strings"
)

// DFA is a deterministic finite automaton over Symbols. Transitions are
// stored densely: trans[state*numSymbols+symbol] holds the successor, or
// Dead (-1) when no transition exists. A missing transition is semantically
// a transition to an implicit, non-accepting sink from which no final state
// is reachable — i.e. the automaton's transition function is total, as the
// paper assumes, with the dead state kept implicit for compactness.
type DFA struct {
	numSymbols int
	start      int
	accept     []bool
	trans      []int32
}

// Dead is the implicit dead-state id used in transition tables.
const Dead = -1

// NewDFA returns an empty DFA over an alphabet of numSymbols symbols.
func NewDFA(numSymbols int) *DFA {
	return &DFA{numSymbols: numSymbols, start: -1}
}

// NumSymbols returns the alphabet size.
func (d *DFA) NumSymbols() int { return d.numSymbols }

// NumStates returns the number of explicit states.
func (d *DFA) NumStates() int { return len(d.accept) }

// Start returns the start state, or Dead if the automaton recognizes the
// empty language with no explicit states.
func (d *DFA) Start() int { return d.start }

// SetStart marks s as the start state.
func (d *DFA) SetStart(s int) { d.start = s }

// AddState adds a state with all transitions initially Dead, returning its id.
func (d *DFA) AddState(accept bool) int {
	id := len(d.accept)
	d.accept = append(d.accept, accept)
	row := make([]int32, d.numSymbols)
	for i := range row {
		row[i] = Dead
	}
	d.trans = append(d.trans, row...)
	return id
}

// SetAccept marks state s as accepting (or not).
func (d *DFA) SetAccept(s int, accept bool) { d.accept[s] = accept }

// IsAccept reports whether s is an accepting state. IsAccept(Dead) is false.
func (d *DFA) IsAccept(s int) bool { return s >= 0 && d.accept[s] }

// SetTransition installs from --sym--> to. to may be Dead to erase an edge.
func (d *DFA) SetTransition(from int, sym Symbol, to int) {
	d.trans[from*d.numSymbols+int(sym)] = int32(to)
}

// Step returns δ(state, sym). Stepping from Dead stays Dead, matching the
// total-function semantics.
func (d *DFA) Step(state int, sym Symbol) int {
	if state == Dead {
		return Dead
	}
	return int(d.trans[state*d.numSymbols+int(sym)])
}

// Run returns δ(state, word), stopping early once Dead is reached.
func (d *DFA) Run(state int, word []Symbol) int {
	for _, sym := range word {
		state = d.Step(state, sym)
		if state == Dead {
			return Dead
		}
	}
	return state
}

// Accepts reports whether the DFA accepts word from the start state.
func (d *DFA) Accepts(word []Symbol) bool {
	return d.IsAccept(d.Run(d.start, word))
}

// AcceptsEmpty reports whether ε ∈ L(d).
func (d *DFA) AcceptsEmpty() bool { return d.IsAccept(d.start) }

// Widen returns an equivalent DFA over a larger alphabet: transitions on
// the new symbols are Dead. Needed when an automaton was compiled before
// its shared alphabet grew (e.g. a second schema interned new labels).
// Widening to the current size returns the receiver unchanged.
func (d *DFA) Widen(numSymbols int) *DFA {
	if numSymbols < d.numSymbols {
		panic("fa: Widen cannot shrink the alphabet")
	}
	if numSymbols == d.numSymbols {
		return d
	}
	w := NewDFA(numSymbols)
	for s := 0; s < d.NumStates(); s++ {
		w.AddState(d.accept[s])
	}
	for s := 0; s < d.NumStates(); s++ {
		for sym := 0; sym < d.numSymbols; sym++ {
			if t := d.Step(s, Symbol(sym)); t != Dead {
				w.SetTransition(s, Symbol(sym), t)
			}
		}
	}
	w.start = d.start
	return w
}

// Relabel returns a copy of d over an alphabet of width symbols in which
// d's symbol i becomes syms[i]; symbols outside syms get no transitions.
// State numbering is unchanged. syms must have one entry per symbol of d,
// be injective, and stay below width. A content model compiled over its
// own labels moves onto a shared alphabet this way.
func (d *DFA) Relabel(syms []Symbol, width int) *DFA {
	if len(syms) != d.numSymbols {
		panic(fmt.Sprintf("fa: Relabel maps %d symbols, DFA has %d", len(syms), d.numSymbols))
	}
	n := d.NumStates()
	trans := make([]int32, n*width)
	for i := range trans {
		trans[i] = Dead
	}
	for s := 0; s < n; s++ {
		row := d.trans[s*d.numSymbols : (s+1)*d.numSymbols]
		out := trans[s*width : (s+1)*width]
		for i, t := range row {
			out[syms[i]] = t
		}
	}
	return &DFA{numSymbols: width, start: d.start, accept: append([]bool(nil), d.accept...), trans: trans}
}

// Table exposes the DFA's dense representation — accept flags and the
// transition table, as copies — for serialization. The layout matches
// RestoreDFA: trans[state*numSymbols+symbol] is the successor or Dead.
func (d *DFA) Table() (start int, accept []bool, trans []int32) {
	return d.start, append([]bool(nil), d.accept...), append([]int32(nil), d.trans...)
}

// RestoreDFA rebuilds a DFA from its dense representation (the shape Table
// returns), validating it: len(trans) must equal len(accept)*numSymbols,
// and the start state and every transition target must be Dead or a valid
// state id. The slices are adopted, not copied.
func RestoreDFA(numSymbols, start int, accept []bool, trans []int32) (*DFA, error) {
	if numSymbols < 0 {
		return nil, fmt.Errorf("fa: RestoreDFA: negative alphabet size %d", numSymbols)
	}
	n := len(accept)
	if len(trans) != n*numSymbols {
		return nil, fmt.Errorf("fa: RestoreDFA: transition table has %d entries, want %d states × %d symbols = %d",
			len(trans), n, numSymbols, n*numSymbols)
	}
	if start != Dead && (start < 0 || start >= n) {
		return nil, fmt.Errorf("fa: RestoreDFA: start state %d out of range [0,%d)", start, n)
	}
	for i, t := range trans {
		if t != Dead && (t < 0 || int(t) >= n) {
			return nil, fmt.Errorf("fa: RestoreDFA: transition %d targets state %d, out of range [0,%d)", i, t, n)
		}
	}
	return &DFA{numSymbols: numSymbols, start: start, accept: accept, trans: trans}, nil
}

// Clone returns a deep copy of the DFA.
func (d *DFA) Clone() *DFA {
	c := &DFA{
		numSymbols: d.numSymbols,
		start:      d.start,
		accept:     append([]bool(nil), d.accept...),
		trans:      append([]int32(nil), d.trans...),
	}
	return c
}

// Totalize returns an equivalent DFA whose transition function has no Dead
// entries; if any were present, an explicit non-accepting sink state is
// appended with self-loops on every symbol. The second result reports the
// sink's id, or Dead if no sink was needed.
func (d *DFA) Totalize() (*DFA, int) {
	needSink := false
	for _, t := range d.trans {
		if t == Dead {
			needSink = true
			break
		}
	}
	c := d.Clone()
	if d.start == Dead {
		needSink = true
	}
	if !needSink {
		return c, Dead
	}
	sink := c.AddState(false)
	for i := range c.trans {
		if c.trans[i] == Dead {
			c.trans[i] = int32(sink)
		}
	}
	if c.start == Dead {
		c.start = sink
	}
	return c, sink
}

// Complement returns a DFA recognizing Σ* \ L(d).
func (d *DFA) Complement() *DFA {
	c, _ := d.Totalize()
	for i := range c.accept {
		c.accept[i] = !c.accept[i]
	}
	return c
}

// IsEmpty reports whether L(d) = ∅, i.e. no accepting state is reachable
// from the start state.
func (d *DFA) IsEmpty() bool {
	for _, s := range d.reachableFromStart() {
		if d.accept[s] {
			return false
		}
	}
	return true
}

// reachableFromStart returns the set of states reachable from start.
func (d *DFA) reachableFromStart() []int {
	if d.start == Dead {
		return nil
	}
	seen := make([]bool, d.NumStates())
	stack := []int{d.start}
	seen[d.start] = true
	var out []int
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, s)
		for sym := 0; sym < d.numSymbols; sym++ {
			t := d.Step(s, Symbol(sym))
			if t != Dead && !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return out
}

// LiveStates returns, per state, whether some accepting state is reachable
// from it (including itself). States with false are "dead" in the paper's
// second sense (§4.1 condition 2).
func (d *DFA) LiveStates() []bool {
	n := d.NumStates()
	// Build reverse adjacency.
	radj := make([][]int32, n)
	for s := 0; s < n; s++ {
		for sym := 0; sym < d.numSymbols; sym++ {
			t := d.Step(s, Symbol(sym))
			if t != Dead {
				radj[t] = append(radj[t], int32(s))
			}
		}
	}
	live := make([]bool, n)
	var stack []int
	for s := 0; s < n; s++ {
		if d.accept[s] {
			live[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range radj[s] {
			if !live[p] {
				live[p] = true
				stack = append(stack, int(p))
			}
		}
	}
	return live
}

// Trim returns an equivalent DFA containing only states that are both
// reachable from the start state and live (can reach an accepting state);
// all other transitions become Dead. If the start state itself is pruned,
// the resulting DFA has start == Dead and recognizes ∅.
func (d *DFA) Trim() *DFA {
	live := d.LiveStates()
	reach := make([]bool, d.NumStates())
	for _, s := range d.reachableFromStart() {
		reach[s] = true
	}
	remap := make([]int32, d.NumStates())
	for i := range remap {
		remap[i] = Dead
	}
	c := NewDFA(d.numSymbols)
	for s := 0; s < d.NumStates(); s++ {
		if reach[s] && live[s] {
			remap[s] = int32(c.AddState(d.accept[s]))
		}
	}
	for s := 0; s < d.NumStates(); s++ {
		if remap[s] == Dead {
			continue
		}
		for sym := 0; sym < d.numSymbols; sym++ {
			t := d.Step(s, Symbol(sym))
			if t != Dead && remap[t] != Dead {
				c.SetTransition(int(remap[s]), Symbol(sym), int(remap[t]))
			}
		}
	}
	if d.start != Dead && remap[d.start] != Dead {
		c.start = int(remap[d.start])
	} else {
		c.start = Dead
	}
	return c
}

// Dump renders the DFA's transition table for diagnostics. names, if
// non-nil, supplies symbol labels.
func (d *DFA) Dump(names []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "DFA states=%d start=%d\n", d.NumStates(), d.start)
	for s := 0; s < d.NumStates(); s++ {
		mark := " "
		if d.accept[s] {
			mark = "*"
		}
		fmt.Fprintf(&b, "%s q%d:", mark, s)
		for sym := 0; sym < d.numSymbols; sym++ {
			t := d.Step(s, Symbol(sym))
			if t == Dead {
				continue
			}
			label := fmt.Sprintf("#%d", sym)
			if names != nil && sym < len(names) {
				label = names[sym]
			}
			fmt.Fprintf(&b, " %s->q%d", label, t)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
