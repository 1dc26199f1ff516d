// Package stream validates XML directly from a token stream, without
// materializing a document tree. Memory is proportional to document depth.
//
// One walker, over internal/xmlscan events, serves two entry points:
//
//   - Caster: streaming schema cast validation — the §3.2 algorithm over
//     SAX-style events. A subtree whose (source, target) type pair is
//     subsumed is *skimmed*: its tokens are consumed with no automaton
//     steps, no facet checks and no per-node work beyond depth tracking;
//     a disjoint pair rejects immediately. Content models are checked with
//     the §4 immediate decision automata, so a model check can conclude
//     (accept) before the remaining children arrive.
//   - Validator: full validation against one schema (the streaming
//     counterpart of package baseline), run as a cast with no source
//     schema: nothing is subsumed or disjoint, and every content model
//     runs the plain target DFA.
//
// Unlike the tree engine, a streaming caster cannot avoid *reading* skipped
// input — the bytes still flow through the tokenizer — but it avoids all
// validation work for them, which is where the time goes in practice.
package stream

import (
	"context"
	"io"

	"repro/internal/schema"
)

// Stats counts streaming validation work. Field names are shared with
// internal/cast.Stats and the public revalidate.Stats/StreamStats so the
// four views of "work done" stay comparable (a counter means the same thing
// wherever it appears).
type Stats struct {
	// ElementsVisited counts elements that received validation work.
	ElementsVisited int64
	// ElementsSkimmed counts elements consumed inside subsumed subtrees
	// with no validation work (the streaming analogue of a skipped
	// subtree's interior).
	ElementsSkimmed int64
	// AutomatonSteps counts content-model transitions taken — exactly the
	// number of child-label symbols *scanned*.
	AutomatonSteps int64
	// SymbolsSkipped counts child labels that arrived after an immediate
	// decision automaton had already settled the content-model verdict:
	// symbols §4's c_immed saved from scanning.
	SymbolsSkipped int64
	// SubsumedSkips counts subtrees skimmed because (τ, τ') ∈ R_sub.
	SubsumedSkips int64
	// DisjointRejects counts rejections due to (τ, τ') ∈ R_dis (0 or 1 per
	// validation, since the first one aborts).
	DisjointRejects int64
	// ValuesChecked counts simple values tested against facets.
	ValuesChecked int64
	// MaxDepth is the deepest element depth reached (root = 0), counting
	// skimmed elements. Merged with max, not sum, when totals combine.
	MaxDepth int64
}

// Add accumulates d into s. Each Validate call returns its own
// request-scoped Stats; callers that serve many requests (the batch APIs,
// the castd daemon) merge them into cumulative totals with Add.
func (s *Stats) Add(d Stats) {
	s.ElementsVisited += d.ElementsVisited
	s.ElementsSkimmed += d.ElementsSkimmed
	s.AutomatonSteps += d.AutomatonSteps
	s.SymbolsSkipped += d.SymbolsSkipped
	s.SubsumedSkips += d.SubsumedSkips
	s.DisjointRejects += d.DisjointRejects
	s.ValuesChecked += d.ValuesChecked
	if d.MaxDepth > s.MaxDepth {
		s.MaxDepth = d.MaxDepth
	}
}

// WorkSavedRatio is the fraction of elements the caster skimmed instead of
// validating: skimmed/(visited+skimmed), clamped to 0 when nothing flowed.
// Unlike the tree engine, the stream sees every element go by, so the total
// is known without outside help.
func (s Stats) WorkSavedRatio() float64 {
	total := s.ElementsVisited + s.ElementsSkimmed
	if total == 0 {
		return 0
	}
	return float64(s.ElementsSkimmed) / float64(total)
}

// SymbolsScannedRatio is the fraction of content-model symbols actually
// scanned out of all symbols seen: steps/(steps+skipped). 1 when no
// immediate decision fired (or nothing was scanned at all).
func (s Stats) SymbolsScannedRatio() float64 {
	total := s.AutomatonSteps + s.SymbolsSkipped
	if total == 0 {
		return 1
	}
	return float64(s.AutomatonSteps) / float64(total)
}

// noteDepth records that the stream reached an element at depth d.
func (s *Stats) noteDepth(d int) {
	if int64(d) > s.MaxDepth {
		s.MaxDepth = int64(d)
	}
}

// Validator performs full streaming validation against one schema: the
// §3 validate(τ', e), run as a Caster with no source schema.
type Validator struct {
	c Caster
}

// NewValidator returns a streaming validator for a compiled schema.
func NewValidator(s *schema.Schema) *Validator {
	if !s.Compiled() {
		panic("stream: schema must be compiled")
	}
	return &Validator{c: Caster{Dst: s}}
}

// Validate reads one XML document from r and validates it.
func (v *Validator) Validate(r io.Reader) (Stats, error) {
	return v.c.Validate(r)
}

// ValidateContext is Validate with cooperative cancellation and resource
// limits, mirroring Caster.ValidateContext: the walker polls ctx.Done()
// every cancelCheckEvery tokens, and a document exceeding lim's depth or
// element bounds is rejected with a *LimitError. The zero Limits is
// unlimited.
func (v *Validator) ValidateContext(ctx context.Context, r io.Reader, lim Limits) (Stats, error) {
	return v.c.ValidateContext(ctx, r, lim)
}
