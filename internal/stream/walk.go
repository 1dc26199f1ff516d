package stream

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/xmlscan"
)

// frame is the per-open-element state of the walker. Frames live in a
// pooled slice of values: pushing reuses the slot (and its retained text
// buffer) left by a previously popped frame, so steady-state validation
// allocates nothing per element.
type frame struct {
	// tS is nil when the caster has no source schema.
	tS, tD *schema.Type
	// ida scans the children word through c_immed; once it immediately
	// accepts, contentDone is set and no more steps are taken (the model
	// check is settled even though children keep arriving and are still
	// cast individually). With no source knowledge about element children
	// (tS nil or simple), ida is nil and idaState runs the plain target
	// DFA instead.
	ida         *fa.IDA
	idaState    int
	contentDone bool
	text        []byte
}

// wstate is the pooled per-validation state of the walker.
type wstate struct {
	stack []frame
}

var wstatePool = sync.Pool{New: func() any { return new(wstate) }}

// validate is the streaming walker behind every Caster and Validator
// entry point: the §3.2 cast over xmlscan events, with subsumed subtrees
// consumed by the scanner's native SkimSubtree instead of walking tokens
// one by one. With no source schema (full validation) nothing is
// subsumed or disjoint and no cast contract applies.
func (c *Caster) validate(ctx context.Context, r io.Reader, tr *telemetry.Trace, lim Limits) (Stats, error) {
	var st Stats
	sc := xmlscan.Get(r)
	defer sc.Release()
	ws := wstatePool.Get().(*wstate)
	stack := ws.stack[:0]
	defer func() {
		ws.stack = stack
		wstatePool.Put(ws)
	}()
	full := c.Src == nil
	rootSeen := false
	var tc *traceCtx
	if tr != nil {
		tc = &traceCtx{}
	}
	// done is nil for context.Background(), making every cancellation check
	// a no-op branch; countdown amortizes the channel poll. Skimmed
	// elements draw from the same budget (SkimSubtree pauses when it is
	// spent), so a canceled validation stops within one interval of
	// elements no matter how they were consumed.
	done := ctx.Done()
	countdown := cancelCheckEvery

	for {
		if done != nil {
			countdown--
			if countdown <= 0 {
				countdown = cancelCheckEvery
				select {
				case <-done:
					return st, fmt.Errorf("stream: validation canceled after %d elements: %w",
						st.ElementsVisited+st.ElementsSkimmed, context.Cause(ctx))
				default:
				}
			}
		}
		ev, err := sc.Next()
		if err != nil {
			return st, fmt.Errorf("stream: %w", err)
		}
		switch ev {
		case xmlscan.EventEOF:
			if !rootSeen {
				return st, fmt.Errorf("stream: no root element")
			}
			return st, nil
		case xmlscan.EventStart:
			label := sc.Name()
			childIdx := 0
			if tc != nil && len(tc.childN) > 0 {
				childIdx = tc.childN[len(tc.childN)-1]
				tc.childN[len(tc.childN)-1]++
			}
			τ, τp := schema.NoType, schema.NoType
			if len(stack) == 0 {
				if rootSeen {
					return st, fmt.Errorf("stream: multiple root elements")
				}
				rootSeen = true
				sym := c.Dst.Alpha.LookupBytes(label)
				τp = c.Dst.RootTypeSym(sym)
				if !full {
					τ = c.Src.RootTypeSym(sym)
					if τ == schema.NoType {
						return st, fmt.Errorf("stream: cast contract violated: %q is not a source root", label)
					}
				}
				if τp == schema.NoType {
					return st, fmt.Errorf("stream: label %q is not a permitted root of the target schema", label)
				}
			} else {
				parent := &stack[len(stack)-1]
				if parent.tD.Simple {
					return st, fmt.Errorf("stream: element %q under simple target type %q", label, parent.tD.Name)
				}
				sym := c.Dst.Alpha.LookupBytes(label)
				if sym == fa.NoSymbol {
					return st, fmt.Errorf("stream: label %q unknown to the schemas", label)
				}
				if parent.contentDone {
					st.SymbolsSkipped++ // model verdict settled; symbol arrives unscanned
				} else {
					st.AutomatonSteps++
					if parent.ida != nil {
						parent.idaState = parent.ida.D.Step(parent.idaState, sym)
						switch parent.ida.Classify(parent.idaState) {
						case fa.ImmediateAccept:
							parent.contentDone = true
						case fa.ImmediateReject:
							return st, fmt.Errorf("stream: child %q not allowed by target content model of %q",
								label, parent.tD.Name)
						}
					} else {
						parent.idaState = parent.tD.DFA.Step(parent.idaState, sym)
						if parent.idaState == fa.Dead {
							return st, fmt.Errorf("stream: child %q not allowed by target content model of %q",
								label, parent.tD.Name)
						}
					}
				}
				if t, ok := parent.tD.Child[sym]; ok {
					τp = t
				}
				if τp == schema.NoType {
					return st, fmt.Errorf("stream: label %q has no child type under target %q", label, parent.tD.Name)
				}
				if parent.tS != nil && !parent.tS.Simple {
					if t, ok := parent.tS.Child[sym]; ok {
						τ = t
					}
				}
				if τ == schema.NoType && !full {
					return st, fmt.Errorf("stream: cast contract violated: no source child type for %q", label)
				}
			}
			st.ElementsVisited++
			if err := lim.checkDepth(len(stack) + 1); err != nil {
				return st, err
			}
			if err := lim.checkElements(st.ElementsVisited + st.ElementsSkimmed); err != nil {
				return st, err
			}
			st.noteDepth(len(stack))
			if !full && c.Rel.Subsumed(τ, τp) {
				st.SubsumedSkips++
				if tr != nil {
					tr.Record(c.traceEvent(telemetry.ActionSkip, tc, string(label), childIdx, len(stack), τ, τp,
						"subsumed: subtree target-valid, skimming"))
				}
				// Everything below is target-valid: let the scanner skim
				// it natively, pausing whenever the cancellation budget
				// runs out.
				base := sc.Depth()
				for {
					chunk := 0
					if done != nil {
						chunk = countdown
					}
					res, skimErr := sc.SkimSubtree(xmlscan.SkimLimits{
						BaseOpen:         base,
						MaxOpen:          lim.MaxDepth,
						MaxTotalElements: lim.MaxElements,
						BaseElements:     st.ElementsVisited + st.ElementsSkimmed,
						ChunkElements:    chunk,
					})
					st.ElementsSkimmed += res.Elements
					if done != nil {
						// Skimmed elements draw down the same poll budget
						// as walked ones; a ≤0 remainder polls on the next
						// event.
						countdown -= int(res.Elements)
					}
					if res.MaxOpen > 0 {
						st.noteDepth(res.MaxOpen - 1)
					}
					if skimErr != nil {
						switch skimErr {
						case xmlscan.ErrSkimDepth:
							return st, &LimitError{Kind: "depth", Limit: int64(lim.MaxDepth)}
						case xmlscan.ErrSkimElements:
							return st, &LimitError{Kind: "elements", Limit: lim.MaxElements}
						}
						return st, fmt.Errorf("stream: %w", skimErr)
					}
					if res.Done {
						break
					}
					// Paused: the skim consumed the rest of this check
					// interval's budget.
					countdown = cancelCheckEvery
					select {
					case <-done:
						return st, fmt.Errorf("stream: validation canceled after %d elements: %w",
							st.ElementsVisited+st.ElementsSkimmed, context.Cause(ctx))
					default:
					}
				}
				continue
			}
			if !full && c.Rel.Disjoint(τ, τp) {
				st.DisjointRejects++
				if tr != nil {
					tr.Record(c.traceEvent(telemetry.ActionReject, tc, string(label), childIdx, len(stack), τ, τp,
						"disjoint: no source-valid subtree satisfies the target type"))
				}
				return st, fmt.Errorf("stream: source type %q is disjoint from target type %q",
					c.Src.TypeOf(τ).Name, c.Dst.TypeOf(τp).Name)
			}
			stack = c.pushFrame(stack, τ, τp)
			f := &stack[len(stack)-1]
			if tr != nil {
				action, detail := telemetry.ActionDescend, "neither subsumed nor disjoint: validating content"
				if f.tD.Simple {
					action, detail = telemetry.ActionSimple, "simple target type: value checked at close"
				}
				tr.Record(c.traceEvent(action, tc, string(label), childIdx, len(stack)-1, τ, τp, detail))
			}
			if tc != nil {
				if len(tc.labels) > 0 {
					tc.dewey = append(tc.dewey, childIdx)
				}
				tc.labels = append(tc.labels, string(label))
				tc.childN = append(tc.childN, 0)
			}
		case xmlscan.EventEnd:
			if len(stack) == 0 {
				// Unreachable through the scanner (it enforces tag
				// matching), but the walker owns its own invariant.
				return st, fmt.Errorf("stream: unexpected end element </%s>", sc.Name())
			}
			f := &stack[len(stack)-1]
			if tc != nil {
				tc.labels = tc.labels[:len(tc.labels)-1]
				tc.childN = tc.childN[:len(tc.childN)-1]
				if len(tc.dewey) > 0 {
					tc.dewey = tc.dewey[:len(tc.dewey)-1]
				}
			}
			err := closeFrame(f, &st)
			stack = stack[:len(stack)-1]
			if err != nil {
				return st, err
			}
		case xmlscan.EventText:
			text := sc.Text()
			if len(stack) == 0 {
				if len(bytes.TrimSpace(text)) == 0 {
					continue // inter-element whitespace around the root
				}
				return st, fmt.Errorf("stream: text outside the root element")
			}
			f := &stack[len(stack)-1]
			if !f.tD.Simple {
				if len(bytes.TrimSpace(text)) == 0 {
					continue
				}
				return st, fmt.Errorf("stream: text content under element-only target type %q", f.tD.Name)
			}
			f.text = append(f.text, text...)
		}
	}
}

// pushFrame appends a frame for the (τ, τp) pair, reusing slot capacity
// (including the slot's text buffer) when available. τ is NoType when the
// caster has no source schema.
func (c *Caster) pushFrame(stack []frame, τ, τp schema.TypeID) []frame {
	if len(stack) < cap(stack) {
		stack = stack[:len(stack)+1]
	} else {
		stack = append(stack, frame{})
	}
	f := &stack[len(stack)-1]
	f.tS, f.tD = nil, c.Dst.TypeOf(τp)
	if τ != schema.NoType {
		f.tS = c.Src.TypeOf(τ)
	}
	f.ida = nil
	f.idaState = 0
	f.contentDone = false
	f.text = f.text[:0]
	if !f.tD.Simple {
		if f.tS == nil || f.tS.Simple {
			// No source knowledge about element children: scan the plain
			// target DFA.
			f.idaState = f.tD.DFA.Start()
		} else {
			f.ida = c.contentIDA(τ, τp)
			f.idaState = f.ida.D.Start()
			if f.ida.Classify(f.idaState) == fa.ImmediateAccept {
				f.contentDone = true
			}
		}
	}
	return stack
}

func closeFrame(f *frame, st *Stats) error {
	if f.tD.Simple {
		st.ValuesChecked++
		if !f.tD.Value.AcceptsValue(string(f.text)) {
			return fmt.Errorf("stream: value %q does not satisfy simple target type %q (%s)",
				f.text, f.tD.Name, f.tD.Value)
		}
		return nil
	}
	if f.contentDone {
		return nil
	}
	if f.ida != nil {
		if !f.ida.D.IsAccept(f.idaState) {
			return fmt.Errorf("stream: children do not complete target content model of %q", f.tD.Name)
		}
		return nil
	}
	// Plain target-DFA scan (no source knowledge).
	if !f.tD.DFA.IsAccept(f.idaState) {
		return fmt.Errorf("stream: children do not complete target content model of %q", f.tD.Name)
	}
	return nil
}
