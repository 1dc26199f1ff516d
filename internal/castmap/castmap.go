// Package castmap provides the shared storage of per-type-pair string
// casters (the §4 content-model immediate decision automata) used by both
// the tree-level cast engine and the streaming caster. The table is
// concurrency-first: lookups on the validate hot path never take a lock.
//
// Two tiers back a table. Pairs reachable from the shared roots of the
// schema pair are built eagerly at construction into a plain map that is
// immutable afterwards — reads need no synchronization at all. The rare
// pair first requested at validation time (an on-demand pair) is published
// through a copy-on-write overflow map behind an atomic.Pointer: readers
// atomically load the current map, and a writer installs a fresh copy with
// the new entry via compare-and-swap, retrying (and discarding its copy)
// when it loses a race. Duplicate caster construction under contention is
// possible but harmless — casters are pure functions of the two DFAs — and
// exactly one instance per pair wins publication, so the per-pair lazy
// automata (strcast.Caster's full-product and reverse IDAs) are shared too.
package castmap

import (
	"sync/atomic"

	"repro/internal/schema"
	"repro/internal/strcast"
	"repro/internal/subsume"
)

// Pair identifies a (source type, target type) pair.
type Pair struct{ Src, Dst schema.TypeID }

// Table resolves the string caster for a type pair without locking on the
// hot path. Construct with New; a Table is safe for concurrent use.
type Table struct {
	src, dst *schema.Schema

	// precomputed is filled at construction and never written again.
	precomputed map[Pair]*strcast.Caster
	// overflow holds on-demand pairs; the map a load observes is never
	// mutated — writers swap in a copy.
	overflow atomic.Pointer[map[Pair]*strcast.Caster]
}

// New builds a table for a compiled schema pair sharing one alphabet. When
// eager is true, casters for every (complex, complex) type pair reachable
// from the root labels both schemas accept are precomputed, skipping pairs
// rel already decides (subsumed pairs are skipped and disjoint pairs
// rejected before any content model runs, so their casters are never
// consulted on the no-modifications path).
func New(src, dst *schema.Schema, rel *subsume.Relations, eager bool) *Table {
	t := &Table{src: src, dst: dst, precomputed: map[Pair]*strcast.Caster{}}
	empty := map[Pair]*strcast.Caster{}
	t.overflow.Store(&empty)
	if eager {
		t.precompute(rel)
	}
	return t
}

// precompute builds string casters for every (complex, complex) type pair
// reachable from the shared roots, skipping pairs the relations already
// decide. Type pairs are global — a pair decided here is decided
// everywhere, never "undecided elsewhere" — so a decided pair needs no
// caster of its own. The walk still descends below decided pairs, for two
// reasons: the child pairs of a decided pair can themselves be undecided,
// and with-modifications validation revisits the children of a subsumed
// pair when edits landed beneath it, consulting their casters.
func (t *Table) precompute(rel *subsume.Relations) {
	seen := map[Pair]bool{}
	var queue []Pair
	push := func(p Pair) {
		if !seen[p] {
			seen[p] = true
			queue = append(queue, p)
		}
	}
	for sym, τ := range t.src.Roots {
		if τp, ok := t.dst.Roots[sym]; ok {
			push(Pair{τ, τp})
		}
	}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		a, b := t.src.TypeOf(p.Src), t.dst.TypeOf(p.Dst)
		if a.Simple || b.Simple {
			continue
		}
		decided := rel != nil && (rel.Subsumed(p.Src, p.Dst) || rel.Disjoint(p.Src, p.Dst))
		if !decided {
			t.precomputed[p] = strcast.New(a.DFA, b.DFA)
		}
		for sym, ω := range a.Child {
			if ν, ok := b.Child[sym]; ok {
				push(Pair{ω, ν})
			}
		}
	}
}

// Get returns the caster for the pair, building and publishing it first
// when it is neither precomputed nor already in the overflow map. The fast
// path — any precomputed pair, or an overflow pair seen before — is two
// map reads and one atomic load, with no locking.
func (t *Table) Get(τ, τp schema.TypeID) *strcast.Caster {
	p := Pair{τ, τp}
	if c, ok := t.precomputed[p]; ok {
		return c
	}
	for {
		cur := t.overflow.Load()
		if c, ok := (*cur)[p]; ok {
			return c
		}
		c := strcast.New(t.src.TypeOf(τ).DFA, t.dst.TypeOf(τp).DFA)
		next := make(map[Pair]*strcast.Caster, len(*cur)+1)
		for k, v := range *cur {
			next[k] = v
		}
		next[p] = c
		if t.overflow.CompareAndSwap(cur, &next) {
			return c
		}
		// Lost a publication race: reload — the winner may have installed
		// this very pair, in which case its instance must be returned so
		// every caller shares one caster per pair.
	}
}

// Len reports how many casters the table currently holds (precomputed plus
// published on-demand pairs).
func (t *Table) Len() int {
	return len(t.precomputed) + len(*t.overflow.Load())
}

// Snapshot returns the table's current contents — the precomputed tier plus
// every published on-demand pair — as one map copy, for serialization.
func (t *Table) Snapshot() map[Pair]*strcast.Caster {
	over := *t.overflow.Load()
	out := make(map[Pair]*strcast.Caster, len(t.precomputed)+len(over))
	for p, c := range t.precomputed {
		out[p] = c
	}
	for p, c := range over {
		out[p] = c
	}
	return out
}

// Restore rebuilds a table whose precomputed tier holds exactly the given
// casters (typically a deserialized Snapshot), adopting the map. Pairs not
// present keep the usual on-demand overflow behavior.
func Restore(src, dst *schema.Schema, casters map[Pair]*strcast.Caster) *Table {
	if casters == nil {
		casters = map[Pair]*strcast.Caster{}
	}
	t := &Table{src: src, dst: dst, precomputed: casters}
	empty := map[Pair]*strcast.Caster{}
	t.overflow.Store(&empty)
	return t
}

// Sizes reports the table's footprint: the number of casters held and the
// total number of c_immed product-IDA states across them. The serving
// layer's GET /pairs report and the registry's eviction cost estimate both
// read it.
func (t *Table) Sizes() (casters, idaStates int) {
	count := func(m map[Pair]*strcast.Caster) {
		for _, c := range m {
			casters++
			idaStates += c.CImmed.D.NumStates()
		}
	}
	count(t.precomputed)
	count(*t.overflow.Load())
	return casters, idaStates
}
