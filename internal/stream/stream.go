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
	"repro/internal/work"
)

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
func (v *Validator) Validate(r io.Reader) (work.Counters, error) {
	return v.c.Validate(r)
}

// ValidateContext is Validate with cooperative cancellation and resource
// limits, mirroring Caster.ValidateContext: the walker polls ctx.Done()
// every cancelCheckEvery tokens, and a document exceeding lim's depth or
// element bounds is rejected with a *LimitError. The zero Limits is
// unlimited.
func (v *Validator) ValidateContext(ctx context.Context, r io.Reader, lim Limits) (work.Counters, error) {
	return v.c.ValidateContext(ctx, r, lim)
}
