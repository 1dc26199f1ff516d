package schema

import (
	"sync"

	"repro/internal/fa"
	"repro/internal/regexpsym"
)

// Model is one compiled content model, independent of any schema's
// alphabet: the minimal DFA over the model's own labels, numbered
// 0..len(Labels)-1 in first-occurrence order, and the model's UPA verdict.
// Compile relabels DFA onto a schema's shared alphabet, so the same model
// yields the same automaton in every schema and universe that uses it.
// Models are immutable and may be shared between schemas and goroutines.
type Model struct {
	// Key is the model's table key (regexpsym.Key), or "" when the model
	// cannot be keyed and is never shared.
	Key string
	// Labels are the model's distinct labels in first-occurrence order;
	// label i is DFA symbol i.
	Labels []string
	// DFA is the minimized automaton over the local labels. Never mutate it.
	DFA *fa.DFA
	// OneUnambiguous is the UPA verdict: the Glushkov automaton is
	// deterministic.
	OneUnambiguous bool
}

// compileModel compiles a content model over its own labels: Glushkov,
// subset construction when the Glushkov automaton is not deterministic,
// then Hopcroft minimization with canonical state numbering. The result
// depends only on the model, never on an alphabet or a cache. With
// requireUPA set, a model that is not 1-unambiguous is returned without a
// DFA: the caller rejects it, and subset construction — exponential in the
// worst case — never runs on a model no schema may use.
func compileModel(key string, content regexpsym.Node, requireUPA bool) *Model {
	labels := regexpsym.Labels(content)
	alpha := fa.NewAlphabet()
	alpha.Symbols(labels...)
	nfa := regexpsym.Glushkov(content, alpha)
	m := &Model{Key: key, Labels: labels, OneUnambiguous: fa.IsDeterministic(nfa)}
	switch {
	case m.OneUnambiguous:
		m.DFA = fa.Minimize(fa.FromNFA(nfa))
	case !requireUPA:
		m.DFA = fa.Minimize(fa.Determinize(nfa))
	}
	return m
}

// ModelTable shares compiled content models between schema loads, keyed by
// the model's rendering. Lookups never insert; Acquire and Release keep a
// reference count per key, and an entry is freed when its count reaches
// zero, so the table holds exactly the models its holders acquired. A nil
// *ModelTable is an empty table. Safe for concurrent use.
type ModelTable struct {
	mu      sync.RWMutex
	entries map[string]*tableEntry
}

type tableEntry struct {
	model *Model
	refs  int
}

// NewModelTable returns an empty table.
func NewModelTable() *ModelTable {
	return &ModelTable{entries: map[string]*tableEntry{}}
}

// Lookup returns the model stored under key, or nil.
func (t *ModelTable) Lookup(key string) *Model {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if e, ok := t.entries[key]; ok {
		return e.model
	}
	return nil
}

// Acquire takes one reference on each keyed model, inserting the ones the
// table lacks. Unkeyed models (Key == "") are skipped.
func (t *ModelTable) Acquire(models []*Model) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range models {
		if m.Key == "" {
			continue
		}
		e, ok := t.entries[m.Key]
		if !ok {
			e = &tableEntry{model: m}
			t.entries[m.Key] = e
		}
		e.refs++
	}
}

// Release drops one reference on each keyed model taken by Acquire,
// freeing entries no holder uses any more.
func (t *ModelTable) Release(models []*Model) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range models {
		if m.Key == "" {
			continue
		}
		if e, ok := t.entries[m.Key]; ok {
			if e.refs--; e.refs <= 0 {
				delete(t.entries, m.Key)
			}
		}
	}
}

// Keys returns the keys currently held, in no particular order.
func (t *ModelTable) Keys() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.entries))
	for k := range t.entries {
		out = append(out, k)
	}
	return out
}

// model resolves a content model through the table: a hit returns the
// shared model, a miss (or a nil table) compiles locally without inserting.
// Only models of compiled schemas are ever acquired, so a hit always
// carries a DFA.
func (t *ModelTable) model(content regexpsym.Node, requireUPA bool) *Model {
	if t == nil {
		return compileModel("", content, requireUPA)
	}
	key, ok := regexpsym.Key(content)
	if !ok {
		return compileModel("", content, requireUPA)
	}
	if m := t.Lookup(key); m != nil {
		return m
	}
	return compileModel(key, content, requireUPA)
}

// Models returns the distinct keyed content models the compiled schema was
// built from — what a holder passes to ModelTable.Acquire.
func (s *Schema) Models() []*Model {
	var out []*Model
	seen := map[string]bool{}
	for _, t := range s.Types {
		if m := t.Model; m != nil && m.Key != "" && !seen[m.Key] {
			seen[m.Key] = true
			out = append(out, m)
		}
	}
	return out
}
