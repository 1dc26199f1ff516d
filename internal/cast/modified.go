package cast

import (
	"fmt"

	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/update"
	"repro/internal/work"
	"repro/internal/xmltree"
)

// ValidateModified performs schema cast validation with modifications
// (§3.3). The tree must carry the Δ-labels produced by an update.Tracker
// and trie must be the tracker's finalized modification trie. The original
// (pre-edit) document is assumed valid under the source schema; the verdict
// concerns the post-edit document against the target schema.
//
// The traversal navigates the trie in parallel with the tree:
//
//  1. Unmodified subtree → plain schema cast (§3.2), skipping/rejecting via
//     R_sub/R_dis.
//  2. Deleted subtree (Δ^a_ε) → skipped entirely.
//  3. Inserted subtree (Δ^ε_b) → full validation against the target (no
//     source knowledge exists for it).
//  4. Otherwise the node's content string may have changed: it is checked
//     against regexp_τ' using the §4.3 string cast with modifications (the
//     unmodified prefix/suffix of the child label string re-synchronizes
//     into c_immed), and children are revalidated recursively under
//     types_τ(Proj_old) and types_τ'(Proj_new).
func (e *Engine) ValidateModified(doc *xmltree.Node, trie *update.Trie) (work.Counters, error) {
	var st work.Counters
	if doc.IsText() {
		return st, &schema.ValidationError{Path: "/", Reason: "root must be an element"}
	}
	if doc.Delta == xmltree.DeltaDelete {
		return st, &schema.ValidationError{Path: "/", Reason: "root was deleted"}
	}
	st.ElementsVisited++
	newLabel, _, _ := doc.ProjNew()
	τp := e.Dst.RootType(newLabel)
	if τp == schema.NoType {
		return st, &schema.ValidationError{
			Path:   schema.NodePath(doc),
			Reason: fmt.Sprintf("label %q is not a permitted root of the target schema", newLabel),
		}
	}
	if doc.Delta == xmltree.DeltaInsert {
		err := e.fullValidate(τp, doc, &st)
		return st, err
	}
	oldLabel, _, _ := doc.ProjOld()
	τ := e.Src.RootType(oldLabel)
	if τ == schema.NoType {
		return st, contractError(schema.NodePath(doc), "original label %q is not a source root", oldLabel)
	}
	err := e.castValidateMod(τ, τp, doc, trie, &st, 0)
	return st, err
}

func (e *Engine) castValidateMod(τ, τp schema.TypeID, node *xmltree.Node, trie *update.Trie, st *work.Counters, depth int) error {
	st.NoteDepth(int64(depth))
	// Case 1: untouched subtree — the no-modifications cast applies.
	if !trie.Modified() && node.Delta == xmltree.DeltaNone {
		return e.castValidate(τ, τp, node, st, depth, nil, nil)
	}
	tD := e.Dst.TypeOf(τp)
	if tD.Simple {
		// Content (text) may have changed; recheck the value.
		return e.checkSimple(tD, node, st)
	}
	tS := e.Src.TypeOf(τ)

	// Case 4: check the (possibly edited) content string against the
	// target model, then recurse with the Proj_old/Proj_new type pairs.
	if _, err := e.checkContentModified(tS, tD, node, st); err != nil {
		return err
	}
	for i, c := range node.Children {
		label, isText, live := c.ProjNew()
		if !live || isText {
			continue // deleted, or text (already vetted by content check)
		}
		sym := e.Src.Alpha.Lookup(label)
		ν, ok := tD.Child[sym]
		if !ok {
			return &schema.ValidationError{
				Path:   schema.NodePath(c),
				Reason: fmt.Sprintf("label %q has no child type under target %q", label, tD.Name),
			}
		}
		st.ElementsVisited++
		if c.Delta == xmltree.DeltaInsert {
			// Case 3: inserted subtree — full validation, no source
			// knowledge.
			err := e.fullValidate(ν, c, st)
			if err != nil {
				return err
			}
			continue
		}
		if tS.Simple {
			// The source type tells us nothing about element children (it
			// had none); validate explicitly.
			err := e.fullValidate(ν, c, st)
			if err != nil {
				return err
			}
			continue
		}
		oldLabel, _, hadOld := c.ProjOld()
		if !hadOld {
			return contractError(schema.NodePath(c), "non-inserted node lacks an original label")
		}
		ω, ok := tS.Child[e.Src.Alpha.Lookup(oldLabel)]
		if !ok {
			return contractError(schema.NodePath(c), "original label %q has no source child type under %q", oldLabel, tS.Name)
		}
		if err := e.castValidateMod(ω, ν, c, trie.Child(i), st, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// checkContentModified verifies Proj_new(t_1)…Proj_new(t_k) ∈ L(regexp_τ')
// using the §4.3 string cast: the unmodified prefix and suffix of the child
// label string let the scan re-synchronize into c_immed instead of running
// the whole string through the target DFA. Falls back to a plain
// b_immed scan when the ablation switch disables content IDAs.
func (e *Engine) checkContentModified(tS, tD *schema.Type, node *xmltree.Node, st *work.Counters) ([]*xmltree.Node, error) {
	var (
		oldWord, newWord []fa.Symbol
		kids             []*xmltree.Node
		prefix           = -1 // computed below: leading unmodified run
	)
	// Build Proj_old / Proj_new label strings. A child counts toward the
	// unmodified prefix/suffix only when it is untouched *as a position*:
	// Delta == None. (Descendant edits do not affect the label string.)
	unmodifiedRun := 0 // trailing run of untouched children in newWord
	for _, c := range node.Children {
		if c.IsText() {
			if c.Delta != xmltree.DeltaDelete {
				st.TextNodesVisited++
				return nil, &schema.ValidationError{
					Path:   schema.NodePath(node),
					Reason: fmt.Sprintf("target type %q has element content but node has text content", tD.Name),
				}
			}
			// A deleted text child contributes χ to Proj_old; the old
			// word is only used for re-synchronization on the source
			// automaton, where χ never appears in element content —
			// its presence would make the original invalid, so treat it
			// as contract breakage.
			return nil, contractError(schema.NodePath(node), "text child in element content of source type %q", tS.Name)
		}
		oldLabel, _, hadOld := c.ProjOld()
		if hadOld {
			sym := e.Src.Alpha.Lookup(oldLabel)
			if sym == fa.NoSymbol {
				return nil, contractError(schema.NodePath(c), "original label %q unknown", oldLabel)
			}
			oldWord = append(oldWord, sym)
		}
		newLabel, _, live := c.ProjNew()
		if live {
			sym := e.Src.Alpha.Lookup(newLabel)
			if sym == fa.NoSymbol {
				return nil, &schema.ValidationError{
					Path:   schema.NodePath(c),
					Reason: fmt.Sprintf("label %q unknown to the target schema", newLabel),
				}
			}
			newWord = append(newWord, sym)
			kids = append(kids, c)
			if c.Delta == xmltree.DeltaNone {
				unmodifiedRun++
			} else {
				if prefix < 0 {
					prefix = len(newWord) - 1
				}
				unmodifiedRun = 0
			}
		} else {
			// Deleted child: breaks both runs at this position.
			if prefix < 0 {
				prefix = len(newWord)
			}
			unmodifiedRun = 0
		}
	}
	if prefix < 0 {
		prefix = len(newWord) // no position-level edits at all
	}
	suffix := unmodifiedRun

	if e.opts.DisableContentIDA {
		// Plain scan of the new word with the target DFA.
		state := tD.DFA.Start()
		for _, sym := range newWord {
			state = tD.DFA.Step(state, sym)
			st.AutomatonSteps++
			if state == fa.Dead {
				return nil, e.contentError(tD, node)
			}
		}
		if !tD.DFA.IsAccept(state) {
			return nil, e.contentError(tD, node)
		}
		return kids, nil
	}

	caster := e.caster(tS.ID, tD.ID)
	res := caster.ValidateModified(oldWord, newWord, clampBound(prefix, oldWord, newWord), clampBound(suffix, oldWord, newWord))
	st.AutomatonSteps += int64(res.Scanned) + int64(res.StepsOnA)
	if res.Reversed {
		st.ReverseScans++
	}
	if !res.Accepted {
		return nil, e.contentError(tD, node)
	}
	return kids, nil
}

// clampBound keeps a prefix/suffix bound within ValidateModified's domain.
func clampBound(b int, oldW, newW []fa.Symbol) int {
	lim := len(oldW)
	if len(newW) < lim {
		lim = len(newW)
	}
	if b > lim {
		return lim
	}
	return b
}
