package cast

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/work"
	"repro/internal/xmltree"
)

// cancelCheckEvery amortizes cancellation polls: a context-aware walk
// checks ctx.Done() once per this many elements, so cancellation costs one
// counter decrement per element on the hot path and a canceled validation
// stops within one interval of work.
const cancelCheckEvery = 256

// cancelCheck carries the amortized cancellation state of one
// context-aware walk. A nil *cancelCheck (the non-context entry points)
// disables checking entirely.
type cancelCheck struct {
	ctx       context.Context
	done      <-chan struct{}
	countdown int
}

func newCancelCheck(ctx context.Context) *cancelCheck {
	done := ctx.Done()
	if done == nil {
		return nil // context.Background() etc: nothing to poll
	}
	return &cancelCheck{ctx: ctx, done: done, countdown: cancelCheckEvery}
}

// check polls for cancellation once per cancelCheckEvery calls.
func (cc *cancelCheck) check(st *work.Counters) error {
	if cc == nil {
		return nil
	}
	cc.countdown--
	if cc.countdown > 0 {
		return nil
	}
	cc.countdown = cancelCheckEvery
	select {
	case <-cc.done:
		return fmt.Errorf("cast: validation canceled after %d elements: %w",
			st.ElementsVisited, context.Cause(cc.ctx))
	default:
		return nil
	}
}

// Validate performs schema cast validation without modifications (§3.2):
// given a document valid under the source schema, decide validity under the
// target schema. The verdict is accompanied by work statistics. If the
// document turns out not to be valid under the source schema, Validate
// reports an error (it never wrongly accepts, but the error may then blame
// the contract rather than the target schema).
func (e *Engine) Validate(doc *xmltree.Node) (work.Counters, error) {
	var st work.Counters
	err := e.validateRoot(doc, &st, nil, nil)
	return st, err
}

// ValidateContext is Validate with cooperative cancellation: the walk polls
// ctx.Done() every cancelCheckEvery elements, so the hot path pays one
// counter decrement per element and a canceled validation returns (with an
// error wrapping the context's cause) within one check interval. A context
// that can never be canceled costs nothing beyond a nil check.
func (e *Engine) ValidateContext(ctx context.Context, doc *xmltree.Node) (work.Counters, error) {
	var st work.Counters
	err := e.validateRoot(doc, &st, nil, newCancelCheck(ctx))
	return st, err
}

// ValidateTrace is Validate in trace mode: every skip/reject/descend
// decision (plus content-model, simple-value and full-validation events)
// is recorded into tr with its path, Dewey number and (τ, τ') pair. The
// trace makes a verdict explainable — it costs allocations proportional to
// the number of decisions and is meant for -explain / ?explain=1 requests,
// not the hot path (which passes a nil trace and pays only a pointer test).
func (e *Engine) ValidateTrace(doc *xmltree.Node, tr *telemetry.Trace) (work.Counters, error) {
	var st work.Counters
	err := e.validateRoot(doc, &st, tr, nil)
	return st, err
}

func (e *Engine) validateRoot(doc *xmltree.Node, st *work.Counters, tr *telemetry.Trace, cc *cancelCheck) error {
	if doc.IsText() {
		return &schema.ValidationError{Path: "/", Reason: "root must be an element"}
	}
	st.ElementsVisited++
	τ := e.Src.RootType(doc.Label)
	if τ == schema.NoType {
		return contractError(schema.NodePath(doc), "label %q is not a source root", doc.Label)
	}
	τp := e.Dst.RootType(doc.Label)
	if τp == schema.NoType {
		return &schema.ValidationError{
			Path:   schema.NodePath(doc),
			Reason: fmt.Sprintf("label %q is not a permitted root of the target schema", doc.Label),
		}
	}
	return e.castValidate(τ, τp, doc, st, 0, tr, cc)
}

// traceEvent builds one decision event for node at depth; only called when
// a trace was requested.
func (e *Engine) traceEvent(a telemetry.Action, node *xmltree.Node, depth int, τ, τp schema.TypeID, detail string) telemetry.Event {
	ev := telemetry.Event{
		Action: a,
		Path:   schema.NodePath(node),
		Dewey:  deweyString(node),
		Depth:  depth,
		Detail: detail,
	}
	if τ != schema.NoType {
		ev.SrcType = e.Src.TypeOf(τ).Name
	}
	if τp != schema.NoType {
		ev.DstType = e.Dst.TypeOf(τp).Name
	}
	return ev
}

// deweyString renders a node's Dewey decimal number ("0.2.1"; "ε" for the
// root, whose Dewey number is the empty sequence).
func deweyString(n *xmltree.Node) string {
	path := n.Path()
	if len(path) == 0 {
		return "ε"
	}
	parts := make([]string, len(path))
	for i, p := range path {
		parts[i] = strconv.Itoa(p)
	}
	return strings.Join(parts, ".")
}

// castValidate is the paper's validate(τ, τ', e): the subtree at node is
// assumed valid with respect to τ (source); decide validity with respect to
// τ' (target). The node itself has been counted by the caller. depth is the
// node's element depth (root = 0); tr, when non-nil, receives one event per
// decision.
func (e *Engine) castValidate(τ, τp schema.TypeID, node *xmltree.Node, st *work.Counters, depth int, tr *telemetry.Trace, cc *cancelCheck) error {
	st.NoteDepth(int64(depth))
	if err := cc.check(st); err != nil {
		return err
	}
	if !e.opts.DisableRelations {
		if e.Rel.Subsumed(τ, τp) {
			st.SubsumedSkips++
			if tr != nil {
				tr.Record(e.traceEvent(telemetry.ActionSkip, node, depth, τ, τp, "subsumed: subtree target-valid without inspection"))
			}
			return nil
		}
		if e.Rel.Disjoint(τ, τp) {
			st.DisjointRejects++
			if tr != nil {
				tr.Record(e.traceEvent(telemetry.ActionReject, node, depth, τ, τp, "disjoint: no source-valid subtree satisfies the target type"))
			}
			return &schema.ValidationError{
				Path: schema.NodePath(node),
				Reason: fmt.Sprintf("source type %q is disjoint from target type %q",
					e.Src.TypeOf(τ).Name, e.Dst.TypeOf(τp).Name),
			}
		}
	}
	tS, tD := e.Src.TypeOf(τ), e.Dst.TypeOf(τp)
	if tD.Simple {
		err := e.checkSimple(tD, node, st)
		if tr != nil {
			detail := "value satisfies target facets"
			if err != nil {
				detail = "value rejected by target facets"
			}
			tr.Record(e.traceEvent(telemetry.ActionSimple, node, depth, τ, τp, detail))
		}
		return err
	}
	if tS.Simple {
		// Source-simple vs target-complex: the node's (source-valid)
		// content is text or empty; it satisfies the complex target only
		// when childless with ε in the content model. Full validation of
		// this shallow node settles it.
		err := e.fullValidate(τp, node, st)
		if tr != nil {
			tr.Record(e.traceEvent(telemetry.ActionFull, node, depth, τ, τp, "source type simple: full validation against target"))
		}
		return err
	}
	// Both complex: check the children label string against regexp_τ',
	// exploiting that it belongs to L(regexp_τ) (§4).
	if tr != nil {
		tr.Record(e.traceEvent(telemetry.ActionDescend, node, depth, τ, τp, "neither subsumed nor disjoint: descending"))
	}
	steps0, skipped0 := st.AutomatonSteps, st.SymbolsSkipped
	if err := e.checkContent(tS, tD, node, st); err != nil {
		if tr != nil {
			tr.Record(e.traceEvent(telemetry.ActionContent, node, depth, τ, τp,
				fmt.Sprintf("content model rejected after scanning %d symbols", st.AutomatonSteps-steps0)))
		}
		return err
	}
	if tr != nil {
		detail := fmt.Sprintf("content model accepted: scanned %d symbols", st.AutomatonSteps-steps0)
		if saved := st.SymbolsSkipped - skipped0; saved > 0 {
			detail += fmt.Sprintf(", immediate accept saved %d", saved)
		}
		tr.Record(e.traceEvent(telemetry.ActionContent, node, depth, τ, τp, detail))
	}
	for _, c := range node.Children {
		if c.Delta == xmltree.DeltaDelete || c.IsText() {
			continue // text was rejected by checkContent already
		}
		sym := e.Src.Alpha.Lookup(c.Label)
		ω, ok := tS.Child[sym]
		if !ok {
			return contractError(schema.NodePath(c), "label %q has no source child type under %q", c.Label, tS.Name)
		}
		ν, ok := tD.Child[sym]
		if !ok {
			// The content check passed, so every child label is usable in
			// the target model and must have a child type.
			return &schema.ValidationError{
				Path:   schema.NodePath(c),
				Reason: fmt.Sprintf("label %q has no child type under target %q", c.Label, tD.Name),
			}
		}
		st.ElementsVisited++
		if err := e.castValidate(ω, ν, c, st, depth+1, tr, cc); err != nil {
			return err
		}
	}
	return nil
}

// checkContent verifies constructstring(children(node)) ∈ L(regexp_τ') and
// that the node has no live text content, scanning the children in place
// (no per-node allocation — this runs once per element on the hot path).
// With the content IDA enabled the scan may stop early (immediate accept);
// membership in L(regexp_τ') is then guaranteed without reading the
// remaining labels, though text-freeness is still enforced over the rest —
// those post-decision labels count as SymbolsSkipped, not AutomatonSteps.
func (e *Engine) checkContent(tS, tD *schema.Type, node *xmltree.Node, st *work.Counters) error {
	var ida *fa.IDA
	var state int
	decided := false
	if !e.opts.DisableContentIDA {
		ida = e.caster(tS.ID, tD.ID).CImmed
		state = ida.D.Start()
		switch ida.Classify(state) {
		case fa.ImmediateAccept:
			decided = true
		case fa.ImmediateReject:
			return e.contentError(tD, node)
		}
	} else {
		state = tD.DFA.Start()
	}

	for _, c := range node.Children {
		if c.Delta == xmltree.DeltaDelete {
			continue
		}
		if c.IsText() {
			st.TextNodesVisited++
			return &schema.ValidationError{
				Path:   schema.NodePath(node),
				Reason: fmt.Sprintf("target type %q has element content but node has text content", tD.Name),
			}
		}
		sym := e.Src.Alpha.Lookup(c.Label)
		if sym == fa.NoSymbol {
			// Vetted even after the model verdict is settled: a label the
			// schemas never interned breaks the cast contract no matter
			// where it sits relative to the decision point.
			return contractError(schema.NodePath(c), "label %q unknown to the schemas", c.Label)
		}
		if decided {
			st.SymbolsSkipped++
			continue // model verdict settled; keep vetting text and labels only
		}
		st.AutomatonSteps++
		if ida != nil {
			state = ida.D.Step(state, sym)
			switch ida.Classify(state) {
			case fa.ImmediateAccept:
				decided = true
			case fa.ImmediateReject:
				return e.contentError(tD, node)
			}
		} else {
			state = tD.DFA.Step(state, sym)
			if state == fa.Dead {
				return e.contentError(tD, node)
			}
		}
	}
	if decided {
		return nil
	}
	if ida != nil {
		if !ida.D.IsAccept(state) {
			return e.contentError(tD, node)
		}
		return nil
	}
	if !tD.DFA.IsAccept(state) {
		return e.contentError(tD, node)
	}
	return nil
}

func (e *Engine) contentError(tD *schema.Type, node *xmltree.Node) error {
	return &schema.ValidationError{
		Path:   schema.NodePath(node),
		Reason: fmt.Sprintf("children do not satisfy content model of target type %q", tD.Name),
	}
}

// checkSimple validates the node's text content against a simple target
// type.
func (e *Engine) checkSimple(tD *schema.Type, node *xmltree.Node, st *work.Counters) error {
	value := ""
	seen := 0
	for _, c := range node.Children {
		if c.Delta == xmltree.DeltaDelete {
			continue
		}
		if !c.IsText() {
			st.ElementsVisited++
			return &schema.ValidationError{
				Path:   schema.NodePath(node),
				Reason: fmt.Sprintf("target type %q is simple but node has element content", tD.Name),
			}
		}
		st.TextNodesVisited++
		seen++
		if seen > 1 {
			return &schema.ValidationError{
				Path:   schema.NodePath(node),
				Reason: fmt.Sprintf("target type %q is simple: multiple text children", tD.Name),
			}
		}
		value = c.Text
	}
	if !tD.Value.AcceptsValue(value) {
		return &schema.ValidationError{
			Path: schema.NodePath(node),
			Reason: fmt.Sprintf("value %q does not satisfy simple target type %q (%s)",
				value, tD.Name, tD.Value),
		}
	}
	return nil
}

// fullValidate hands a subtree whose root the caller has already counted
// to the target-schema full validator; its work accumulates into st.
func (e *Engine) fullValidate(τp schema.TypeID, node *xmltree.Node, st *work.Counters) error {
	st.FullValidations++
	return e.full.ValidateType(τp, node, st)
}
