// Package baseline implements the comparator of the paper's experiments: a
// full revalidator in the mould of Xerces 2.4 — it traverses every node of
// the document and runs every content model through the target schema's
// DFAs, making no use of source-schema knowledge. Both the baseline and the
// schema-cast engine share the same tree representation, compiled automata
// and instrumentation, so their comparison isolates exactly the algorithmic
// difference the paper measures.
package baseline

import (
	"fmt"

	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/work"
	"repro/internal/xmltree"
)

// Validator performs full validation against one schema.
type Validator struct {
	S *schema.Schema
}

// New returns a validator for a compiled schema.
func New(s *schema.Schema) *Validator {
	if !s.Compiled() {
		panic("baseline: schema must be compiled")
	}
	return &Validator{S: s}
}

// Validate fully validates the document, returning collected statistics
// alongside the verdict. Trees carrying Δ annotations are validated in
// their post-modification projection.
func (v *Validator) Validate(doc *xmltree.Node) (work.Counters, error) {
	var st work.Counters
	if doc.IsText() {
		return st, &schema.ValidationError{Path: "/", Reason: "root must be an element"}
	}
	st.ElementsVisited++
	τ := v.S.RootType(doc.Label)
	if τ == schema.NoType {
		return st, &schema.ValidationError{
			Path:   schema.NodePath(doc),
			Reason: fmt.Sprintf("label %q is not a permitted root", doc.Label),
		}
	}
	err := v.validateType(τ, doc, &st)
	return st, err
}

// ValidateType fully validates a subtree against a specific type,
// accumulating into st. The subtree's root element is assumed already
// counted by the caller (Validate counts it; recursive calls count children
// as they reach them).
func (v *Validator) ValidateType(τ schema.TypeID, e *xmltree.Node, st *work.Counters) error {
	return v.validateType(τ, e, st)
}

func (v *Validator) validateType(τ schema.TypeID, e *xmltree.Node, st *work.Counters) error {
	t := v.S.TypeOf(τ)
	if t.Simple {
		return v.validateSimple(t, e, st)
	}
	// Content-model check over live element children, scanned in place
	// (no per-node allocation — the comparator should be as lean as the
	// cast engine it is measured against).
	state := t.DFA.Start()
	for _, c := range e.Children {
		if c.Delta == xmltree.DeltaDelete {
			continue
		}
		if c.IsText() {
			st.TextNodesVisited++
			return &schema.ValidationError{
				Path:   schema.NodePath(e),
				Reason: fmt.Sprintf("type %q has element content but node has text content", t.Name),
			}
		}
		sym := v.S.Alpha.Lookup(c.Label)
		if sym == fa.NoSymbol {
			st.ElementsVisited++
			return &schema.ValidationError{
				Path:   schema.NodePath(c),
				Reason: fmt.Sprintf("label %q unknown to the schema", c.Label),
			}
		}
		state = t.DFA.Step(state, sym)
		st.AutomatonSteps++
		if state == fa.Dead {
			st.ElementsVisited++
			return &schema.ValidationError{
				Path:   schema.NodePath(c),
				Reason: fmt.Sprintf("child %q not allowed by content model of type %q", c.Label, t.Name),
			}
		}
	}
	if !t.DFA.IsAccept(state) {
		return &schema.ValidationError{
			Path:   schema.NodePath(e),
			Reason: fmt.Sprintf("children do not complete content model of type %q", t.Name),
		}
	}
	for _, c := range e.Children {
		if c.Delta == xmltree.DeltaDelete || c.IsText() {
			continue
		}
		st.ElementsVisited++
		if err := v.validateType(t.Child[v.S.Alpha.Lookup(c.Label)], c, st); err != nil {
			return err
		}
	}
	return nil
}

func (v *Validator) validateSimple(t *schema.Type, e *xmltree.Node, st *work.Counters) error {
	value := ""
	seen := 0
	for _, c := range e.Children {
		if c.Delta == xmltree.DeltaDelete {
			continue
		}
		if !c.IsText() {
			st.ElementsVisited++
			return &schema.ValidationError{
				Path:   schema.NodePath(e),
				Reason: fmt.Sprintf("type %q is simple: element content %q not allowed", t.Name, c.Label),
			}
		}
		st.TextNodesVisited++
		seen++
		if seen > 1 {
			return &schema.ValidationError{
				Path:   schema.NodePath(e),
				Reason: fmt.Sprintf("type %q is simple: multiple text children", t.Name),
			}
		}
		value = c.Text
	}
	if !t.Value.AcceptsValue(value) {
		return &schema.ValidationError{
			Path:   schema.NodePath(e),
			Reason: fmt.Sprintf("value %q does not satisfy simple type %q (%s)", value, t.Name, t.Value),
		}
	}
	return nil
}
