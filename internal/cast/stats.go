package cast

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/schema"
	"repro/internal/xmltree"
)

// Stats counts the work one cast validation performed; the node counters
// correspond to the paper's Table 3 metric. Field names are shared with
// internal/stream.Stats and the public revalidate.Stats/StreamStats so the
// four views of "work done" stay comparable (a counter means the same
// thing wherever it appears).
type Stats struct {
	// ElementsVisited counts element nodes the engine examined.
	ElementsVisited int64
	// TextNodesVisited counts χ leaves whose value was read.
	TextNodesVisited int64
	// AutomatonSteps counts DFA/IDA transitions taken during content-model
	// checks — exactly the number of child-label symbols *scanned*.
	AutomatonSteps int64
	// SymbolsSkipped counts child labels seen after an immediate decision
	// automaton had already settled the content-model verdict: the symbols
	// §4's c_immed saved from scanning (they are still vetted for cast-
	// contract breakage, but drive no automaton).
	SymbolsSkipped int64
	// SubsumedSkips counts subtrees skipped because (τ, τ') ∈ R_sub.
	SubsumedSkips int64
	// DisjointRejects counts rejections due to (τ, τ') ∈ R_dis (0 or 1 per
	// validation, since the first one aborts).
	DisjointRejects int64
	// FullValidations counts subtrees handed to the full validator
	// (inserted content, or simple-source fallbacks).
	FullValidations int64
	// ReverseScans counts §4.3 with-modifications content checks that chose
	// the reverse-automaton direction (edits clustered at the end).
	ReverseScans int64
	// MaxDepth is the deepest element depth reached (root = 0). Merged with
	// max, not sum, when batch workers combine their Stats.
	MaxDepth int64
}

// NodesVisited is the total of element and text nodes examined — the
// quantity the paper's Table 3 reports.
func (s Stats) NodesVisited() int64 { return s.ElementsVisited + s.TextNodesVisited }

// WorkSavedRatio is the fraction of a document's nodes the cast never
// touched, given the document's total node count: 1 − visited/total,
// clamped to [0, 1]. This is the paper's Table 3 economy as a single
// number; xmlcast -explain reports it, and TestLedger (ledger_test.go)
// pins the counters it is computed from.
func (s Stats) WorkSavedRatio(totalNodes int64) float64 {
	if totalNodes <= 0 {
		return 0
	}
	r := 1 - float64(s.NodesVisited())/float64(totalNodes)
	if r < 0 {
		return 0
	}
	return r
}

// SymbolsScannedRatio is the fraction of content-model symbols actually
// scanned out of all symbols the engine saw: steps/(steps+skipped). 1 when
// no immediate decision fired (or nothing was scanned at all).
func (s Stats) SymbolsScannedRatio() float64 {
	total := s.AutomatonSteps + s.SymbolsSkipped
	if total == 0 {
		return 1
	}
	return float64(s.AutomatonSteps) / float64(total)
}

// addBaseline folds statistics from a full-validation excursion into s.
func (s *Stats) addBaseline(b baseline.Stats) {
	s.ElementsVisited += b.ElementsVisited
	s.TextNodesVisited += b.TextNodesVisited
	s.AutomatonSteps += b.AutomatonSteps
	s.FullValidations++
}

// noteDepth records that the traversal reached an element at depth d.
func (s *Stats) noteDepth(d int) {
	if int64(d) > s.MaxDepth {
		s.MaxDepth = int64(d)
	}
}

// fullValidateSubtree runs the target-schema full validator over a subtree
// whose root the caller has already counted.
func fullValidateSubtree(e *Engine, τp schema.TypeID, node *xmltree.Node) (baseline.Stats, error) {
	var bs baseline.Stats
	err := e.full.ValidateType(τp, node, &bs)
	return bs, err
}

func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d (elem=%d text=%d) steps=%d skipped-symbols=%d skips=%d disjoint=%d full=%d",
		s.NodesVisited(), s.ElementsVisited, s.TextNodesVisited,
		s.AutomatonSteps, s.SymbolsSkipped, s.SubsumedSkips, s.DisjointRejects, s.FullValidations)
}
