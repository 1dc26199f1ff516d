package stream

import (
	"context"
	"io"
	"strconv"
	"strings"

	"repro/internal/castmap"
	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/subsume"
	"repro/internal/telemetry"
	"repro/internal/work"
)

// Caster performs streaming schema cast validation: the incoming document
// is known to satisfy the source schema, and the stream decides validity
// under the target schema, skimming subsumed subtrees and rejecting at the
// first disjoint pair.
//
// After NewCaster, a Caster is immutable and safe for concurrent use:
// content-model IDAs for every type pair reachable from the shared roots
// are precomputed eagerly (no first-document latency spike), and any
// on-demand pair goes through the table's lock-free copy-on-write
// overflow, so concurrent validations never contend on a mutex.
//
// A Caster with no source schema (Src and Rel nil, as a Validator builds
// it) performs full validation: with no source knowledge R_sub and R_dis
// are empty and every content model runs the plain target DFA, so
// castValidate(τ, τ', e) reduces to validate(τ', e).
type Caster struct {
	Src, Dst *schema.Schema
	Rel      *subsume.Relations

	casters *castmap.Table
}

// NewCaster preprocesses a compiled (source, target) pair sharing one
// alphabet.
func NewCaster(src, dst *schema.Schema) (*Caster, error) {
	rel, err := subsume.Compute(src, dst)
	if err != nil {
		return nil, err
	}
	return &Caster{Src: src, Dst: dst, Rel: rel, casters: castmap.New(src, dst, rel, true)}, nil
}

// NewCasterFrom builds a streaming caster from preprocessing another
// component already paid for: rel and table must come from the same
// compiled (src, dst) pair (e.g. a cast.Engine). The daemon uses this to
// hold one set of relations and IDAs per schema pair shared by the tree
// and streaming validation modes.
func NewCasterFrom(src, dst *schema.Schema, rel *subsume.Relations, table *castmap.Table) *Caster {
	return &Caster{Src: src, Dst: dst, Rel: rel, casters: table}
}

// CasterSizes reports the caster's content-model footprint: caster count
// and total c_immed IDA states.
func (c *Caster) CasterSizes() (casters, idaStates int) {
	return c.casters.Sizes()
}

func (c *Caster) contentIDA(τ, τp schema.TypeID) *fa.IDA {
	return c.casters.Get(τ, τp).CImmed
}

// PrecomputedCasters reports how many content-model cast automata the
// caster holds; diagnostics for the preprocessing benchmarks.
func (c *Caster) PrecomputedCasters() int {
	return c.casters.Len()
}

// traceCtx tracks where the stream currently is — open-element labels and
// the Dewey number of the innermost open element — so trace events can be
// tagged with paths. Allocated only in trace mode; the hot path carries a
// nil pointer. The stream's Dewey numbers count element children only
// (text nodes never open frames), which can differ from the tree engine's
// Dewey numbers on mixed-content documents.
type traceCtx struct {
	labels []string // open element labels, root first
	dewey  []int    // Dewey number of the innermost open element
	childN []int    // per open frame: element children seen so far
}

// locate returns the path and Dewey string of a child of the innermost open
// element (or of the root when nothing is open), given its child index.
func (tc *traceCtx) locate(label string, idx int) (path, dewey string) {
	path = "/" + label
	if len(tc.labels) > 0 {
		path = "/" + strings.Join(tc.labels, "/") + "/" + label
	}
	parts := make([]string, 0, len(tc.dewey)+1)
	for _, d := range tc.dewey {
		parts = append(parts, strconv.Itoa(d))
	}
	if len(tc.labels) > 0 {
		parts = append(parts, strconv.Itoa(idx))
	}
	if len(parts) == 0 {
		return path, "ε"
	}
	return path, strings.Join(parts, ".")
}

// Validate reads one XML document — assumed valid under the source schema —
// from r and decides validity under the target schema.
func (c *Caster) Validate(r io.Reader) (work.Counters, error) {
	return c.validate(context.Background(), r, nil, Limits{})
}

// ValidateContext is Validate with cooperative cancellation and resource
// limits: the walker polls ctx.Done() every cancelCheckEvery tokens (so
// the hot path stays lock-free and a canceled cast stops within one check
// interval), and a document exceeding lim's depth or element bounds is
// rejected with a *LimitError. The zero Limits is unlimited.
func (c *Caster) ValidateContext(ctx context.Context, r io.Reader, lim Limits) (work.Counters, error) {
	return c.validate(ctx, r, nil, lim)
}

// ValidateTrace is Validate in trace mode: each skim, reject and descend
// decision is recorded into tr with the element's path, Dewey number and
// (τ, τ') pair. Trace mode allocates path-tracking state the hot path never
// touches.
func (c *Caster) ValidateTrace(r io.Reader, tr *telemetry.Trace) (work.Counters, error) {
	return c.validate(context.Background(), r, tr, Limits{})
}

// ValidateTraceContext is ValidateTrace with the cancellation and limit
// behavior of ValidateContext.
func (c *Caster) ValidateTraceContext(ctx context.Context, r io.Reader, tr *telemetry.Trace, lim Limits) (work.Counters, error) {
	return c.validate(ctx, r, tr, lim)
}

// traceEvent builds one decision event for the element named label, the
// idx-th element child of the innermost open frame, at the given depth.
func (c *Caster) traceEvent(a telemetry.Action, tc *traceCtx, label string, idx, depth int, τ, τp schema.TypeID, detail string) telemetry.Event {
	path, dewey := tc.locate(label, idx)
	ev := telemetry.Event{Action: a, Path: path, Dewey: dewey, Depth: depth, Detail: detail}
	if τ != schema.NoType {
		ev.SrcType = c.Src.TypeOf(τ).Name
	}
	if τp != schema.NoType {
		ev.DstType = c.Dst.TypeOf(τp).Name
	}
	return ev
}
