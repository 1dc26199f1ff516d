package cast

import (
	"fmt"

	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/work"
	"repro/internal/xmltree"
)

// LabelIndex gives direct access to all element instances of each label in
// a document — the indexing §3.4 presumes ("if one can access all instances
// of an element label directly"). Real systems get this from a DOM tag
// index or a path index; here it is built with one linear pass and then
// amortized across revalidations of the same document.
type LabelIndex map[string][]*xmltree.Node

// BuildLabelIndex indexes every element in the document by label.
func BuildLabelIndex(doc *xmltree.Node) LabelIndex {
	idx := LabelIndex{}
	doc.Walk(func(n *xmltree.Node) bool {
		if !n.IsText() && n.Delta != xmltree.DeltaDelete {
			idx[n.Label] = append(idx[n.Label], n)
		}
		return true
	})
	return idx
}

// ValidateDTD performs schema cast validation using the §3.4 DTD
// optimization: since a DTD assigns each label a unique type regardless of
// context, only instances of labels whose (source, target) type pair is
// neither subsumed nor disjoint need visiting, and only their immediate
// content requires checking. Both schemas must be DTD-shaped (IsDTD).
//
// The document is assumed valid under the source schema; idx must index it.
func (e *Engine) ValidateDTD(doc *xmltree.Node, idx LabelIndex) (work.Counters, error) {
	var st work.Counters
	if !e.Src.IsDTD() || !e.Dst.IsDTD() {
		return st, fmt.Errorf("cast: ValidateDTD requires DTD-shaped schemas")
	}
	if doc.IsText() {
		return st, &schema.ValidationError{Path: "/", Reason: "root must be an element"}
	}
	st.ElementsVisited++
	if e.Dst.RootType(doc.Label) == schema.NoType {
		return st, &schema.ValidationError{
			Path:   schema.NodePath(doc),
			Reason: fmt.Sprintf("label %q is not a permitted root of the target schema", doc.Label),
		}
	}

	for label, nodes := range idx {
		if len(nodes) == 0 {
			continue
		}
		τ := e.labelType(e.Src, label)
		τp := e.labelType(e.Dst, label)
		if τ == schema.NoType {
			return st, contractError("/", "label %q has no source type", label)
		}
		if τp == schema.NoType {
			return st, &schema.ValidationError{
				Path:   schema.NodePath(nodes[0]),
				Reason: fmt.Sprintf("label %q has no type in the target schema", label),
			}
		}
		if e.Rel.Subsumed(τ, τp) {
			st.SubsumedSkips++
			continue // every instance's subtree is target-valid
		}
		if e.Rel.Disjoint(τ, τp) {
			st.DisjointRejects++
			return st, &schema.ValidationError{
				Path: schema.NodePath(nodes[0]),
				Reason: fmt.Sprintf("source type %q of label %q is disjoint from target type %q",
					e.Src.TypeOf(τ).Name, label, e.Dst.TypeOf(τp).Name),
			}
		}
		// Neither: check the immediate content of every instance. Child
		// subtrees are covered by their own labels' buckets.
		tS, tD := e.Src.TypeOf(τ), e.Dst.TypeOf(τp)
		for _, n := range nodes {
			st.ElementsVisited++
			if tD.Simple {
				if err := e.checkSimple(tD, n, &st); err != nil {
					return st, err
				}
				continue
			}
			if tS.Simple {
				err := e.fullValidate(τp, n, &st)
				if err != nil {
					return st, err
				}
				continue
			}
			if err := e.checkContent(tS, tD, n, &st); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

// labelType resolves the unique type a DTD-shaped schema assigns to a
// label, looking through the root map and every types_τ.
func (e *Engine) labelType(s *schema.Schema, label string) schema.TypeID {
	sym := s.Alpha.Lookup(label)
	if sym == fa.NoSymbol {
		return schema.NoType
	}
	if τ, ok := s.Roots[sym]; ok {
		return τ
	}
	for _, t := range s.Types {
		if t.Simple {
			continue
		}
		if τ, ok := t.Child[sym]; ok {
			return τ
		}
	}
	return schema.NoType
}
