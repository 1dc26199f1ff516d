// Package strcast implements schema cast validation for strings (EDBT'04
// §4): given deterministic automata a (source) and b (target) and a string
// known to be in L(a), decide membership in L(b) while scanning as few
// symbols as possible. The engine is the immediate decision automaton
// c_immed derived from the product of a and b, which is optimal
// (Proposition 3): no deterministic IDA can decide earlier.
//
// The with-modifications variant (§4.3) re-synchronizes on the unmodified
// suffix of the edited string: the modified prefix is scanned with b_immed,
// the state of a at the synchronization point is recovered on the original
// string, and the scan finishes in c_immed from that state pair
// (Proposition 2). When edits cluster at the end of the string, the same
// scheme runs on the reverse automata instead, and the cheaper direction is
// chosen per call.
package strcast

import (
	"fmt"
	"sync"

	"repro/internal/fa"
)

// Caster holds the preprocessed automata for casting strings from L(a) to
// L(b). Construction cost is linear in the pairs of (a, b) reachable from
// the start pair; per-string validation then scans at most the symbols an
// optimal immediate decision automaton must. A Caster is safe for
// concurrent use.
type Caster struct {
	A, B *fa.DFA

	// CImmed is c_immed over the pairs reachable from (start_a, start_b):
	// every scan that starts at the start pair runs on it.
	CImmed *fa.IDA
	// BImmed is b_immed: the target automaton's own IDA, used to scan
	// modified prefixes (where knowledge of a is useless).
	BImmed *fa.IDA

	// The §4.3 forward scan enters c_immed at an arbitrary pair (q_a, q_b),
	// which may be unreachable from the start pair, so it runs on the
	// full-product c_immed (O(|a|·|b|) states), built on its first use.
	fullOnce   sync.Once
	fullCImmed *fa.IDA

	// Reverse machinery for append-heavy edits (§4.3), built lazily on
	// first use: the reverse of a DFA determinizes through subset
	// construction, which can be exponentially larger than the forward
	// automaton (the reverse of a DFA is an NFA — the paper's footnote 3),
	// so it is only paid for when a reverse scan is actually profitable.
	// These Onces are the only synchronization points of the cast hot
	// path, and they are off that path: only ValidateModified reaches
	// them, never the per-element validate loop.
	revOnce   sync.Once
	revA      *fa.DFA
	revCImmed *fa.IDA
	revBImmed *fa.IDA
}

// New preprocesses the pair (a, b). Both automata must share an alphabet
// size.
func New(a, b *fa.DFA) *Caster {
	if a.NumSymbols() != b.NumSymbols() {
		panic("strcast: mismatched alphabets")
	}
	return &Caster{
		A:      a,
		B:      b,
		CImmed: fa.DeriveReachableCastIDA(a, b),
		BImmed: fa.DeriveIDA(b),
	}
}

// Restore rebuilds a Caster from deserialized parts, skipping the
// DeriveReachableCastIDA/DeriveIDA preprocessing New pays: cImmed must be
// a cast IDA over (a, b) whose start is the start pair, over the reachable
// pairs as New builds it or over the full product as earlier artifacts
// hold it, and bImmed the target automaton's own IDA (bImmed.D must be b
// itself, as DeriveIDA guarantees). The full-product and reverse
// machinery stay lazy, exactly as after New.
func Restore(a, b *fa.DFA, cImmed, bImmed *fa.IDA) (*Caster, error) {
	if a.NumSymbols() != b.NumSymbols() {
		return nil, fmt.Errorf("strcast: Restore: mismatched alphabets (%d vs %d)", a.NumSymbols(), b.NumSymbols())
	}
	if cImmed.Pairs == nil {
		return nil, fmt.Errorf("strcast: Restore: c_immed has no product bookkeeping")
	}
	if cImmed.Pairs.A != a || cImmed.Pairs.B != b {
		return nil, fmt.Errorf("strcast: Restore: c_immed product components are not the caster's automata")
	}
	if bImmed.D != b {
		return nil, fmt.Errorf("strcast: Restore: b_immed is not an IDA over the target automaton")
	}
	if len(cImmed.IA) != cImmed.D.NumStates() || len(cImmed.IR) != cImmed.D.NumStates() {
		return nil, fmt.Errorf("strcast: Restore: c_immed IA/IR sets sized %d/%d for %d states",
			len(cImmed.IA), len(cImmed.IR), cImmed.D.NumStates())
	}
	if len(bImmed.IA) != b.NumStates() || len(bImmed.IR) != b.NumStates() {
		return nil, fmt.Errorf("strcast: Restore: b_immed IA/IR sets sized %d/%d for %d states",
			len(bImmed.IA), len(bImmed.IR), b.NumStates())
	}
	return &Caster{A: a, B: b, CImmed: cImmed, BImmed: bImmed}, nil
}

// full returns the lazily-built full-product c_immed.
func (c *Caster) full() *fa.IDA {
	c.fullOnce.Do(func() { c.fullCImmed = fa.DeriveCastIDA(c.A, c.B) })
	return c.fullCImmed
}

// reverse returns the lazily-built reverse automata.
func (c *Caster) reverse() (revA *fa.DFA, revCImmed, revBImmed *fa.IDA) {
	c.revOnce.Do(func() {
		ra, rb := fa.ReverseDFA(c.A), fa.ReverseDFA(c.B)
		c.revA = ra
		c.revCImmed = fa.DeriveCastIDA(ra, rb)
		c.revBImmed = fa.DeriveIDA(rb)
	})
	return c.revA, c.revCImmed, c.revBImmed
}

// Result reports a cast-validation outcome and its cost.
type Result struct {
	// Accepted reports s ∈ L(b) (valid under the contract s ∈ L(a)).
	Accepted bool
	// Decision tells whether the verdict came early (immediate accept or
	// reject) or required consuming the available input.
	Decision fa.Decision
	// Scanned counts symbols consumed from the (new) string across all
	// immediate decision automata.
	Scanned int
	// StepsOnA counts extra transitions taken on the source automaton to
	// recover synchronization states in the with-modifications path.
	StepsOnA int
	// Reversed reports that the scan ran right-to-left on the reverse
	// automata.
	Reversed bool
}

func (r Result) String() string {
	dir := "fwd"
	if r.Reversed {
		dir = "rev"
	}
	return fmt.Sprintf("accepted=%v decision=%v scanned=%d stepsOnA=%d dir=%s",
		r.Accepted, r.Decision, r.Scanned, r.StepsOnA, dir)
}

// Validate decides s ∈ L(b) for a string s ∈ L(a), scanning with c_immed
// (§4.2). The verdict is unspecified when s ∉ L(a).
func (c *Caster) Validate(s []fa.Symbol) Result {
	res := c.CImmed.ScanFromStart(s)
	return Result{Accepted: res.Accepted, Decision: res.Decision, Scanned: res.Consumed}
}

// ValidateModified decides s' ∈ L(b) where s' was obtained from s ∈ L(a)
// by edits, given how much of s' is untouched at each end:
// s'[:prefixLen] == s[:prefixLen] and the last suffixLen symbols of s' and
// s coincide (both bounds may be 0; they must not overlap the edited
// region). The scan direction is chosen to minimize the worst-case number
// of symbols scanned: forward work is bounded by len(s'), starting with the
// modified part after skipping... — concretely, forward scans the modified
// prefix of length len(s')−suffixLen with b_immed, reverse scans the
// modified suffix of length len(s')−prefixLen with the reverse b_immed;
// the shorter modified side wins. Ties and the no-information case
// (prefixLen = suffixLen = 0) scan forward with b_immed alone, per §4.3.
func (c *Caster) ValidateModified(s, sp []fa.Symbol, prefixLen, suffixLen int) Result {
	n, m := len(s), len(sp)
	if prefixLen < 0 || suffixLen < 0 || prefixLen > min(n, m) || suffixLen > min(n, m) {
		panic("strcast: unmodified prefix/suffix bounds out of range")
	}
	forwardModified := m - suffixLen // symbols b_immed must scan going forward
	reverseModified := m - prefixLen
	if suffixLen == 0 && prefixLen == 0 {
		// No synchronization available: plain scan with b_immed.
		res := c.BImmed.ScanFromStart(sp)
		return Result{Accepted: res.Accepted, Decision: res.Decision, Scanned: res.Consumed}
	}
	if reverseModified < forwardModified {
		return c.validateReverse(s, sp, prefixLen)
	}
	return c.validateForward(s, sp, suffixLen)
}

// validateForward implements the §4.3 algorithm directly: scan the modified
// prefix with b_immed, recover a's state at the synchronization point on
// the original string, then finish with c_immed (Proposition 2).
func (c *Caster) validateForward(s, sp []fa.Symbol, suffixLen int) Result {
	n, m := len(s), len(sp)
	i := m - suffixLen // s'[i:] is the unmodified suffix

	// Step 1: evaluate s'[0:i] with b_immed.
	bres := c.BImmed.ScanFromStart(sp[:i])
	if bres.Decision != fa.Undecided {
		return Result{Accepted: bres.Accepted, Decision: bres.Decision, Scanned: bres.Consumed}
	}
	qb := bres.State

	// Step 2: evaluate s[0:n-suffixLen] on a to recover q_a.
	qa := c.A.Run(c.A.Start(), s[:n-suffixLen])
	stepsOnA := n - suffixLen

	// Step 3: continue scanning the unmodified suffix with the
	// full-product c_immed from the pair (q_a, q_b).
	cImmed := c.full()
	cres := cImmed.Scan(cImmed.PairState(qa, qb), sp[i:])
	return Result{
		Accepted: cres.Accepted,
		Decision: cres.Decision,
		Scanned:  bres.Consumed + cres.Consumed,
		StepsOnA: stepsOnA,
	}
}

// validateReverse runs the same algorithm on the reverse automata: the
// reversed string's modified prefix is the original's modified suffix. The
// strings are scanned back-to-front in place — no reversed copies are
// materialized, so the cost is bounded by the symbols actually examined,
// which keeps append-heavy edits O(edit), not O(string).
func (c *Caster) validateReverse(s, sp []fa.Symbol, prefixLen int) Result {
	n, m := len(s), len(sp)
	revA, revCImmed, revBImmed := c.reverse()

	// Step 1: scan the (reversed) modified suffix sp[prefixLen:] with the
	// reverse b_immed, back to front.
	bres := scanBackward(revBImmed, revBImmed.D.Start(), sp, m-1, prefixLen)
	if bres.Decision != fa.Undecided {
		return Result{Accepted: bres.Accepted, Decision: bres.Decision, Scanned: bres.Consumed, Reversed: true}
	}
	// Step 2: recover the reverse-source state over the original's
	// (reversed) modified region s[prefixLen:].
	qa := revA.Start()
	for k := n - 1; k >= prefixLen; k-- {
		qa = revA.Step(qa, s[k])
	}
	// Step 3: finish on the unmodified region with the reverse c_immed.
	pairState := revCImmed.PairState(qa, bres.State)
	cres := scanBackward(revCImmed, pairState, sp, prefixLen-1, 0)
	return Result{
		Accepted: cres.Accepted,
		Decision: cres.Decision,
		Scanned:  bres.Consumed + cres.Consumed,
		StepsOnA: n - prefixLen,
		Reversed: true,
	}
}

// scanBackward runs word[downto..from] (inclusive bounds, descending)
// through an IDA, mirroring IDA.Scan on the reversed substring without
// materializing it.
func scanBackward(ida *fa.IDA, start int, word []fa.Symbol, from, downto int) fa.ScanResult {
	state := start
	if dec := ida.Classify(state); dec != fa.Undecided {
		return fa.ScanResult{Accepted: dec == fa.ImmediateAccept, Decision: dec, State: state}
	}
	consumed := 0
	for k := from; k >= downto; k-- {
		state = ida.D.Step(state, word[k])
		consumed++
		if dec := ida.Classify(state); dec != fa.Undecided {
			return fa.ScanResult{Accepted: dec == fa.ImmediateAccept, Decision: dec, Consumed: consumed, State: state}
		}
	}
	return fa.ScanResult{Accepted: ida.D.IsAccept(state), Decision: fa.Undecided, Consumed: consumed, State: state}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
