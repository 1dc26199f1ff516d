package revalidate

import (
	"sort"

	"repro/internal/cast"
	"repro/internal/stream"
	"repro/internal/subsume"
)

// RootVerdict is the precomputed verdict for one root label of the source
// schema: whether documents rooted at Label are always target-valid
// (Subsumed), never target-valid (Disjoint, or the target does not accept
// the root at all), or need per-document validation.
type RootVerdict struct {
	Label   string `json:"label"`
	SrcType string `json:"srcType"`
	// DstType is empty when the target schema does not accept this root
	// label (in which case Disjoint is true).
	DstType  string `json:"dstType,omitempty"`
	Subsumed bool   `json:"subsumed"`
	Disjoint bool   `json:"disjoint"`
}

// PairReport summarizes the preprocessed state of a (source, target)
// schema pair without validating any document: the R_sub/R_dis verdicts
// for the root types — the static compatibility check — together with the
// sizes of the precomputed machinery. Producing a report costs nothing
// beyond the preprocessing the pair already paid for.
type PairReport struct {
	// Roots holds one verdict per source root label, sorted by label.
	Roots []RootVerdict `json:"roots"`
	// AlwaysValid reports full static compatibility: every document valid
	// under the source schema is valid under the target schema, so casts
	// are O(1). True iff every source root is subsumed by its target root.
	AlwaysValid bool `json:"alwaysValid"`
	// NeverValid reports static incompatibility: no source-valid document
	// is target-valid (every source root is disjoint from — or missing
	// in — the target).
	NeverValid bool `json:"neverValid"`

	SrcTypes      int `json:"srcTypes"`
	DstTypes      int `json:"dstTypes"`
	SubsumedPairs int `json:"subsumedPairs"`
	DisjointPairs int `json:"disjointPairs"`

	// ContentAutomata counts the per-type-pair content-model cast automata
	// held for the pair; IDAStates is the total number of c_immed states
	// across them, each over the pairs reachable from its start pair (a
	// memory-footprint proxy).
	ContentAutomata int `json:"contentAutomata"`
	IDAStates       int `json:"idaStates"`
}

func buildPairReport(rel *subsume.Relations, casters, idaStates int) PairReport {
	st := rel.Stats()
	r := PairReport{
		SrcTypes:        st.SrcTypes,
		DstTypes:        st.DstTypes,
		SubsumedPairs:   st.SubsumedPairs,
		DisjointPairs:   st.DisjointPairs,
		ContentAutomata: casters,
		IDAStates:       idaStates,
	}
	alpha := rel.Src.Alpha
	for sym, τ := range rel.Src.Roots {
		v := RootVerdict{Label: alpha.Name(sym), SrcType: rel.Src.TypeOf(τ).Name}
		if τp, ok := rel.Dst.Roots[sym]; ok {
			v.DstType = rel.Dst.TypeOf(τp).Name
			v.Subsumed = rel.Subsumed(τ, τp)
			v.Disjoint = rel.Disjoint(τ, τp)
		} else {
			// The target never accepts this root label: statically invalid.
			v.Disjoint = true
		}
		r.Roots = append(r.Roots, v)
	}
	sort.Slice(r.Roots, func(i, j int) bool { return r.Roots[i].Label < r.Roots[j].Label })
	r.AlwaysValid = len(r.Roots) > 0
	r.NeverValid = len(r.Roots) > 0
	for _, v := range r.Roots {
		if !v.Subsumed {
			r.AlwaysValid = false
		}
		if !v.Disjoint {
			r.NeverValid = false
		}
	}
	return r
}

// Report summarizes the caster's precomputed relations and automata; see
// PairReport.
func (c *Caster) Report() PairReport {
	n, states := c.engine.CasterSizes()
	return buildPairReport(c.engine.Rel, n, states)
}

// Report summarizes the stream caster's precomputed relations and
// automata; see PairReport.
func (c *StreamCaster) Report() PairReport {
	n, states := c.c.CasterSizes()
	return buildPairReport(c.c.Rel, n, states)
}

// NewCasterPair preprocesses a (source, target) schema pair once and
// returns both validation modes over the shared state: the tree-level
// Caster and the streaming StreamCaster reuse one set of R_sub/R_dis
// relations and one content-model caster table. This is the constructor
// the serving layer's registry uses — half the preprocessing time and
// memory of building the two casters independently.
func NewCasterPair(src, dst *Schema, opts ...CasterOption) (*Caster, *StreamCaster, error) {
	if err := sameUniverse(src, dst); err != nil {
		return nil, nil, err
	}
	var o cast.Options
	for _, opt := range opts {
		opt(&o)
	}
	engine, err := cast.New(src.s, dst.s, o)
	if err != nil {
		return nil, nil, err
	}
	c := &Caster{src: src, dst: dst, engine: engine}
	sc := &StreamCaster{src: src, dst: dst, c: stream.NewCasterFrom(src.s, dst.s, engine.Rel, engine.Table())}
	return c, sc, nil
}
