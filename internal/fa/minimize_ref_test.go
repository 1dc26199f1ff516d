package fa

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// TestQuickMinimizeMatchesReference: Minimize and the block-rebuilding
// refinement it replaced (minimizeReference, below) produce identical
// tables — state numbering, acceptance and transitions — on random DFAs
// of up to 12 states over up to 4 symbols.
func TestQuickMinimizeMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randDFA(rng, 1+rng.Intn(12), 1+rng.Intn(4))
		got, want := Minimize(d), minimizeReference(d)
		gs, ga, gt := got.Table()
		ws, wa, wt := want.Table()
		if gs != ws || fmt.Sprint(ga, gt) != fmt.Sprint(wa, wt) {
			t.Logf("seed %d: got\n%s\nwant\n%s", seed, got.Dump(nil), want.Dump(nil))
			return false
		}
		return true
	}
	if err := quick.Check(f, quickConfig(500)); err != nil {
		t.Fatal(err)
	}
}

// chainDFA is the minimal DFA of a{0,n} b? over {a, b}: states 0..n count
// the a's read, each accepting, and b leads from any of them to one final
// state. Every state is its own class, and Hopcroft's refinement peels
// them off one at a time.
func chainDFA(n int) *DFA {
	d := NewDFA(2)
	for i := 0; i <= n+1; i++ {
		d.AddState(true)
	}
	for i := 0; i <= n; i++ {
		if i < n {
			d.SetTransition(i, 0, i+1)
		}
		d.SetTransition(i, 1, n+1)
	}
	d.SetStart(0)
	return d
}

// minimizeChainBytes bounds what minimizing the a{0,20000} chain may
// allocate. The refinement that rebuilt a block's member lists on every
// split allocated gigabytes here (it was quadratic in n); the refinable
// partition allocates a few arrays of n and k·n entries.
const minimizeChainBytes = 16 << 20

func TestMinimizeChainAllocations(t *testing.T) {
	const n = 20000
	d := chainDFA(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := Minimize(d)
	runtime.ReadMemStats(&after)
	if got := m.NumStates(); got != n+2 {
		t.Fatalf("minimized chain has %d states, want %d", got, n+2)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > minimizeChainBytes {
		t.Fatalf("minimizing the a{0,%d} chain allocated %d bytes, want at most %d", n, got, minimizeChainBytes)
	}
}

// minimizeReference is the previous Minimize, kept as the differential
// reference: it splits a block by walking all of its members and
// rebuilding both halves, and keys its worklist and split counts by maps.
func minimizeReference(d *DFA) *DFA {
	t := d.Trim()
	if t.start == Dead || t.NumStates() == 0 {
		return NewDFA(d.numSymbols)
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
