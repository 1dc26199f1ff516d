package fa

// Minimize returns the minimal DFA for L(d), computed with Hopcroft's
// partition-refinement algorithm over the trimmed, totalized automaton.
// The result is trimmed again so the implicit dead state stays implicit;
// a DFA for the empty language has start == Dead and zero states.
//
// The partition is refinable in place: every block is a range of one
// permutation of the states, and a split moves the states entering the
// splitter to the front of their block and makes them a block of their
// own, in time proportional to their number. With Hopcroft's
// smaller-half rule the whole refinement takes O(k·n log n) for n states
// over k symbols.
func Minimize(d *DFA) *DFA {
	t := d.Trim()
	if t.start == Dead || t.NumStates() == 0 {
		return NewDFA(d.numSymbols) // canonical empty automaton (start == Dead handled by callers)
	}
	total, _ := t.Totalize()
	n := total.NumStates()
	nsym := total.numSymbols

	// Predecessors in one array: the states entering s on sym are
	// pred[first[k]:first[k+1]] with k = sym*n + s.
	first := make([]int32, nsym*n+1)
	for s := 0; s < n; s++ {
		for sym := 0; sym < nsym; sym++ {
			first[sym*n+total.Step(s, Symbol(sym))+1]++
		}
	}
	for k := 1; k < len(first); k++ {
		first[k] += first[k-1]
	}
	pred := make([]int32, nsym*n)
	fill := make([]int32, nsym*n)
	copy(fill, first)
	for s := 0; s < n; s++ {
		for sym := 0; sym < nsym; sym++ {
			k := sym*n + total.Step(s, Symbol(sym))
			pred[fill[k]] = int32(s)
			fill[k]++
		}
	}

	// The partition: block b holds elems[start[b]:end[b]], loc[s] is the
	// position of s in elems and block[s] its block. While a splitter is
	// applied, the marked states of b are elems[start[b]:mid[b]].
	elems := make([]int32, 0, n)
	loc := make([]int32, n)
	block := make([]int32, n)
	var start, end, mid []int32
	// Splitters (b, sym) waiting on the worklist, as b*nsym + sym; pending
	// says which are on it.
	var work []int32
	var pending []bool
	push := func(b int32, sym int) {
		if k := int(b)*nsym + sym; !pending[k] {
			pending[k] = true
			work = append(work, int32(k))
		}
	}
	addBlock := func(lo, hi int32) int32 {
		b := int32(len(start))
		start, end, mid = append(start, lo), append(end, hi), append(mid, lo)
		for sym := 0; sym < nsym; sym++ {
			pending = append(pending, false)
		}
		return b
	}
	for _, acc := range []bool{true, false} {
		lo := int32(len(elems))
		for s := 0; s < n; s++ {
			if total.accept[s] == acc {
				loc[s] = int32(len(elems))
				elems = append(elems, int32(s))
			}
		}
		if hi := int32(len(elems)); hi > lo {
			b := addBlock(lo, hi)
			for _, s := range elems[lo:hi] {
				block[s] = b
			}
		}
	}
	for b := range start {
		for sym := 0; sym < nsym; sym++ {
			push(int32(b), sym)
		}
	}

	var entering, touched []int32
	for len(work) > 0 {
		k := int(work[len(work)-1])
		work = work[:len(work)-1]
		pending[k] = false
		b, sym := k/nsym, k%nsym

		// The states entering block b on sym; distinct, since each state
		// has one successor on sym.
		entering = entering[:0]
		for _, s := range elems[start[b]:end[b]] {
			j := sym*n + int(s)
			entering = append(entering, pred[first[j]:first[j+1]]...)
		}
		// Mark them: swap each to the marked front of its block.
		for _, s := range entering {
			c := block[s]
			if loc[s] < mid[c] {
				continue
			}
			if mid[c] == start[c] {
				touched = append(touched, c)
			}
			p, q := loc[s], mid[c]
			o := elems[q]
			elems[p], elems[q] = o, s
			loc[o], loc[s] = p, q
			mid[c]++
		}
		// Split off the marked part of every block it does not fill.
		for _, c := range touched {
			m := mid[c]
			mid[c] = start[c]
			if m == end[c] {
				continue
			}
			nb := addBlock(start[c], m)
			start[c], mid[c] = m, m
			for _, s := range elems[start[nb]:end[nb]] {
				block[s] = nb
			}
			// Hopcroft: a pending splitter (c, sym) now also needs (nb, sym);
			// otherwise splitting by the smaller half suffices.
			smaller := nb
			if end[c]-start[c] < end[nb]-start[nb] {
				smaller = c
			}
			for sym := 0; sym < nsym; sym++ {
				if pending[int(c)*nsym+sym] {
					push(nb, sym)
				} else {
					push(smaller, sym)
				}
			}
		}
		touched = touched[:0]
	}

	// Build the quotient automaton.
	m := NewDFA(nsym)
	for range start {
		m.AddState(false)
	}
	for b := range start {
		rep := int(elems[start[b]])
		m.SetAccept(b, total.accept[rep])
		for sym := 0; sym < nsym; sym++ {
			m.SetTransition(b, Symbol(sym), int(block[total.Step(rep, Symbol(sym))]))
		}
	}
	m.SetStart(int(block[total.start]))
	return m.canonical()
}

// canonical returns d trimmed to its reachable, live states, numbered in
// breadth-first order from the start state with successors taken in symbol
// order. Isomorphic automata over the same symbols come out identical, so
// Minimize's result depends on the language alone — not on Hopcroft's
// block numbering, which follows the order splitters are applied in.
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
