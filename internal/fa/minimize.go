package fa

// Minimize returns the minimal DFA for L(d), computed with Hopcroft's
// partition-refinement algorithm over the trimmed, totalized automaton.
// The result is trimmed again so the implicit dead state stays implicit;
// a DFA for the empty language has start == Dead and zero states.
func Minimize(d *DFA) *DFA {
	t := d.Trim()
	if t.start == Dead || t.NumStates() == 0 {
		return NewDFA(d.numSymbols) // canonical empty automaton (start == Dead handled by callers)
	}
	total, _ := t.Totalize()
	n := total.NumStates()
	nsym := total.numSymbols

	// Reverse transition lists: rev[sym][state] = predecessors of state on sym.
	rev := make([][][]int32, nsym)
	for sym := 0; sym < nsym; sym++ {
		rev[sym] = make([][]int32, n)
	}
	for s := 0; s < n; s++ {
		for sym := 0; sym < nsym; sym++ {
			succ := total.Step(s, Symbol(sym))
			rev[sym][succ] = append(rev[sym][succ], int32(s))
		}
	}

	// Partition refinement state. block[s] is the block index of state s.
	block := make([]int, n)
	var blocks [][]int32
	var acc, rej []int32
	for s := 0; s < n; s++ {
		if total.accept[s] {
			acc = append(acc, int32(s))
		} else {
			rej = append(rej, int32(s))
		}
	}
	addBlock := func(members []int32) int {
		id := len(blocks)
		blocks = append(blocks, members)
		for _, s := range members {
			block[s] = id
		}
		return id
	}
	if len(acc) > 0 {
		addBlock(acc)
	}
	if len(rej) > 0 {
		addBlock(rej)
	}

	// Worklist of (block, symbol) splitters.
	type splitter struct {
		block int
		sym   int
	}
	var work []splitter
	inWork := map[splitter]bool{}
	push := func(b, sym int) {
		sp := splitter{b, sym}
		if !inWork[sp] {
			inWork[sp] = true
			work = append(work, sp)
		}
	}
	for sym := 0; sym < nsym; sym++ {
		// Hopcroft: enqueue the smaller of the two initial blocks; enqueueing
		// both is also correct and simpler.
		for b := range blocks {
			push(b, sym)
		}
	}

	touched := make([]int32, 0, n) // scratch: blocks touched during a split
	inSplit := make([]int32, n)    // per state: count of predecessors in splitter
	for len(work) > 0 {
		sp := work[len(work)-1]
		work = work[:len(work)-1]
		delete(inWork, sp)

		// X = states with a transition on sym into the splitter block.
		var X []int32
		for _, s := range blocks[sp.block] {
			X = append(X, rev[sp.sym][s]...)
		}
		if len(X) == 0 {
			continue
		}
		// Mark X membership.
		for _, s := range X {
			inSplit[s]++
		}
		// Group X by current block and split blocks that are cut by X.
		counts := map[int]int{}
		for _, s := range X {
			if inSplit[s] == 1 { // first time seen in this round
				counts[block[s]]++
			}
		}
		for b, cnt := range counts {
			if cnt == len(blocks[b]) {
				continue // whole block inside X: no split
			}
			// Split block b into (in X) and (not in X).
			var in, out []int32
			for _, s := range blocks[b] {
				if inSplit[s] > 0 {
					in = append(in, s)
				} else {
					out = append(out, s)
				}
			}
			blocks[b] = in
			nb := addBlock(out)
			touched = append(touched, int32(b), int32(nb))
			// Update worklist: for each symbol, if (b,sym) pending, add (nb,sym)
			// too; otherwise add the smaller of the two.
			for sym := 0; sym < nsym; sym++ {
				if inWork[splitter{b, sym}] {
					push(nb, sym)
				} else if len(in) <= len(out) {
					push(b, sym)
				} else {
					push(nb, sym)
				}
			}
		}
		for _, s := range X {
			inSplit[s] = 0
		}
		touched = touched[:0]
	}

	// Build the quotient automaton.
	m := NewDFA(nsym)
	for range blocks {
		m.AddState(false)
	}
	for b, members := range blocks {
		rep := int(members[0])
		m.SetAccept(b, total.accept[rep])
		for sym := 0; sym < nsym; sym++ {
			succ := total.Step(rep, Symbol(sym))
			m.SetTransition(b, Symbol(sym), block[succ])
		}
	}
	m.SetStart(block[total.start])
	return m.canonical()
}

// canonical returns d trimmed to its reachable, live states, numbered in
// breadth-first order from the start state with successors taken in symbol
// order. Isomorphic automata over the same symbols come out identical, so
// Minimize's result depends on the language alone — not on Hopcroft's
// block numbering, which follows map iteration order.
func (d *DFA) canonical() *DFA {
	c := NewDFA(d.numSymbols)
	live := d.LiveStates()
	if d.start == Dead || !live[d.start] {
		return c
	}
	remap := make([]int32, d.NumStates())
	for i := range remap {
		remap[i] = Dead
	}
	remap[d.start] = int32(c.AddState(d.accept[d.start]))
	c.start = 0
	order := []int{d.start}
	for i := 0; i < len(order); i++ {
		s := order[i]
		for sym := 0; sym < d.numSymbols; sym++ {
			t := d.Step(s, Symbol(sym))
			if t == Dead || !live[t] {
				continue
			}
			if remap[t] == Dead {
				remap[t] = int32(c.AddState(d.accept[t]))
				order = append(order, t)
			}
			c.SetTransition(int(remap[s]), Symbol(sym), int(remap[t]))
		}
	}
	return c
}

// Equivalent reports whether L(a) = L(b). Both automata must share the same
// alphabet size.
func Equivalent(a, b *DFA) bool {
	return Includes(a, b) && Includes(b, a)
}
