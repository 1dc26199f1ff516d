// Package work holds the one record of validation work that every engine
// fills: the tree caster (internal/cast), the Xerces-style full validator
// (internal/baseline), the streaming walker (internal/stream), the public
// revalidate.Stats/StreamStats (aliases of Counters), castd's per-request
// JSON, metrics and spans, and the per-pair attribution of
// internal/hotpair. The node counters are the machine-independent cost
// measure of the paper's Table 3.
package work

import "fmt"

// Counters counts the work one validation performed. An engine fills the
// fields that apply to it and leaves the rest zero: only the tree engines
// visit text nodes, run full-validation excursions or scan in reverse;
// only the stream walker skims elements and counts facet checks. The
// tree-only fields are omitted from JSON when zero, so a streaming
// answer carries exactly the stream's counters.
type Counters struct {
	// ElementsVisited counts element nodes that received validation work.
	ElementsVisited int64 `json:"elementsVisited"`
	// TextNodesVisited counts χ leaves whose value was read (tree engines).
	TextNodesVisited int64 `json:"textNodesVisited,omitempty"`
	// ElementsSkimmed counts elements a stream cast consumed inside
	// subsumed subtrees with no validation work (the streaming analogue of
	// a skipped subtree's interior).
	ElementsSkimmed int64 `json:"elementsSkimmed"`
	// AutomatonSteps counts DFA/IDA transitions taken in content-model
	// checks — exactly the number of child-label symbols scanned.
	AutomatonSteps int64 `json:"automatonSteps"`
	// SymbolsSkipped counts child labels seen after an immediate decision
	// automaton had already settled the content-model verdict: the symbols
	// §4's c_immed saved from scanning.
	SymbolsSkipped int64 `json:"symbolsSkipped"`
	// SubsumedSkips counts subtrees skipped because (τ, τ') ∈ R_sub.
	SubsumedSkips int64 `json:"subsumedSkips"`
	// DisjointRejects counts rejections due to (τ, τ') ∈ R_dis (0 or 1 per
	// validation, since the first one aborts).
	DisjointRejects int64 `json:"disjointRejects"`
	// ValuesChecked counts simple values tested against facets (stream).
	ValuesChecked int64 `json:"valuesChecked"`
	// FullValidations counts subtrees handed to the full validator
	// (inserted content, or simple-source fallbacks; tree engines).
	FullValidations int64 `json:"fullValidations,omitempty"`
	// ReverseScans counts §4.3 with-modifications content checks that chose
	// the reverse-automaton direction (edits clustered at the end).
	ReverseScans int64 `json:"reverseScans,omitempty"`
	// MaxDepth is the deepest element depth reached (root = 0; the stream
	// counts skimmed elements). Add merges it with max, not sum.
	MaxDepth int64 `json:"maxDepth"`
}

// Add accumulates d into c: every counter sums, except MaxDepth, which
// takes the max. Each validation returns its own request-scoped Counters;
// callers that serve many (the batch APIs, castd, the hot-pair table)
// merge them into totals with Add.
func (c *Counters) Add(d Counters) {
	c.ElementsVisited += d.ElementsVisited
	c.TextNodesVisited += d.TextNodesVisited
	c.ElementsSkimmed += d.ElementsSkimmed
	c.AutomatonSteps += d.AutomatonSteps
	c.SymbolsSkipped += d.SymbolsSkipped
	c.SubsumedSkips += d.SubsumedSkips
	c.DisjointRejects += d.DisjointRejects
	c.ValuesChecked += d.ValuesChecked
	c.FullValidations += d.FullValidations
	c.ReverseScans += d.ReverseScans
	c.NoteDepth(d.MaxDepth)
}

// NoteDepth records that the traversal reached an element at depth d.
func (c *Counters) NoteDepth(d int64) {
	if d > c.MaxDepth {
		c.MaxDepth = d
	}
}

// NodesVisited is the total of element and text nodes examined — the
// quantity the paper's Table 3 reports.
func (c Counters) NodesVisited() int64 { return c.ElementsVisited + c.TextNodesVisited }

// WorkSavedRatio is the fraction of elements skimmed instead of
// validated: skimmed/(visited+skimmed), 0 when nothing flowed. Only the
// stream sees every element go by, so only stream counters give it a
// meaning; the tree engines never learn the size of a subtree they skip
// (compare NodesVisited with the document's node count instead).
func (c Counters) WorkSavedRatio() float64 {
	total := c.ElementsVisited + c.ElementsSkimmed
	if total == 0 {
		return 0
	}
	return float64(c.ElementsSkimmed) / float64(total)
}

// String renders every counter on one line, for logs and test failures.
func (c Counters) String() string {
	return fmt.Sprintf("nodes=%d (elem=%d text=%d) skimmed=%d steps=%d skipped-symbols=%d skips=%d disjoint=%d values=%d full=%d reverse=%d depth=%d",
		c.NodesVisited(), c.ElementsVisited, c.TextNodesVisited, c.ElementsSkimmed,
		c.AutomatonSteps, c.SymbolsSkipped, c.SubsumedSkips, c.DisjointRejects,
		c.ValuesChecked, c.FullValidations, c.ReverseScans, c.MaxDepth)
}
