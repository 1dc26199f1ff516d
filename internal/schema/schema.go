// Package schema implements the abstract XML Schemas of EDBT'04 §3: a
// 4-tuple (Σ, T, ρ, R) where Σ is the element-label alphabet, T a finite
// set of types, ρ assigns each type either a simple-type declaration or a
// complex declaration (regexp_τ over Σ plus a label→type map types_τ), and
// R maps permitted root labels to their types.
//
// Beyond the paper's single merged simple type, simple types here carry a
// small facet lattice (numeric bounds, length bounds, enumerations) — the
// "straightforward extension" the paper describes, and the machinery the
// paper's Experiment 2 (maxExclusive 100 vs 200) exercises.
package schema

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fa"
	"repro/internal/regexpsym"
)

// TypeID identifies a type within one Schema. IDs are dense, starting at 0.
type TypeID int32

// NoType marks an absent type reference.
const NoType TypeID = -1

// Type is a single declaration of ρ.
type Type struct {
	ID   TypeID
	Name string
	// Simple declarations carry value constraints; complex declarations
	// carry a content model.
	Simple bool
	// Value holds the simple-type facets (nil means the unconstrained
	// simple type, the paper's single χ type).
	Value *SimpleType
	// Content is regexp_τ; nil for simple types.
	Content regexpsym.Node
	// DFA is the compiled, minimized content-model automaton over the
	// schema's alphabet: the type's own copy of Model.DFA, relabelled.
	// Populated by Schema.Compile.
	DFA *fa.DFA
	// Model is the content model DFA was relabelled from, possibly shared
	// with other schemas through a ModelTable. Populated by Schema.Compile.
	Model *Model
	// Child is types_τ: the type assigned to each child label permitted
	// by the content model.
	Child map[fa.Symbol]TypeID
	// SkipUPA exempts the content model from the 1-unambiguity check.
	// XML Schema's xs:all groups compile to permutation alternations that
	// are legitimately outside the Unique Particle Attribution rule.
	SkipUPA bool
}

// Schema is an abstract XML Schema (Σ, T, ρ, R).
type Schema struct {
	// Alpha is Σ. Schemas that are compared (subsumption, disjointness,
	// casting) must share one Alphabet instance.
	Alpha *fa.Alphabet
	// Types is T ∪ ρ, indexed by TypeID.
	Types []*Type
	// Roots is R: the root labels a valid document may have, with the
	// type assigned to each.
	Roots map[fa.Symbol]TypeID

	byName     map[string]TypeID
	compiled   bool
	productive []bool
}

// New returns an empty schema over the given (possibly shared) alphabet.
func New(alpha *fa.Alphabet) *Schema {
	if alpha == nil {
		alpha = fa.NewAlphabet()
	}
	return &Schema{
		Alpha:  alpha,
		Roots:  map[fa.Symbol]TypeID{},
		byName: map[string]TypeID{},
	}
}

// AddComplexType declares a complex type with the given content model.
// Child type assignments are added with SetChildType. Type names must be
// unique within the schema.
func (s *Schema) AddComplexType(name string, content regexpsym.Node) (TypeID, error) {
	return s.addType(&Type{Name: name, Content: content, Child: map[fa.Symbol]TypeID{}})
}

// AddSimpleType declares a simple type. facets may be nil for the
// unconstrained simple type.
func (s *Schema) AddSimpleType(name string, facets *SimpleType) (TypeID, error) {
	return s.addType(&Type{Name: name, Simple: true, Value: facets})
}

func (s *Schema) addType(t *Type) (TypeID, error) {
	if t.Name == "" {
		return NoType, errors.New("schema: type name must be non-empty")
	}
	if _, dup := s.byName[t.Name]; dup {
		return NoType, fmt.Errorf("schema: duplicate type %q", t.Name)
	}
	t.ID = TypeID(len(s.Types))
	s.Types = append(s.Types, t)
	s.byName[t.Name] = t.ID
	s.compiled = false
	return t.ID, nil
}

// TypeByName resolves a type name, returning NoType when absent.
func (s *Schema) TypeByName(name string) TypeID {
	if id, ok := s.byName[name]; ok {
		return id
	}
	return NoType
}

// TypeOf returns the type with the given id. It panics on NoType.
func (s *Schema) TypeOf(id TypeID) *Type { return s.Types[id] }

// SetChildType records types_τ(label) = child for the complex type τ.
// The label is interned into Σ.
func (s *Schema) SetChildType(τ TypeID, label string, child TypeID) error {
	t := s.Types[τ]
	if t.Simple {
		return fmt.Errorf("schema: simple type %q has no child types", t.Name)
	}
	sym := s.Alpha.Intern(label)
	if prev, ok := t.Child[sym]; ok && prev != child {
		// XML Schema: two children of an element with the same label must
		// be assigned the same type.
		return fmt.Errorf("schema: type %q assigns label %q two types", t.Name, label)
	}
	t.Child[sym] = child
	s.compiled = false
	return nil
}

// SetRoot records R(label) = τ.
func (s *Schema) SetRoot(label string, τ TypeID) {
	s.Roots[s.Alpha.Intern(label)] = τ
	s.compiled = false
}

// RootType returns R(label), or NoType when label cannot be a root.
func (s *Schema) RootType(label string) TypeID {
	sym := s.Alpha.Lookup(label)
	if sym == fa.NoSymbol {
		return NoType
	}
	if id, ok := s.Roots[sym]; ok {
		return id
	}
	return NoType
}

// RootTypeSym is RootType for an already-resolved label symbol.
func (s *Schema) RootTypeSym(sym fa.Symbol) TypeID {
	if sym == fa.NoSymbol {
		return NoType
	}
	if id, ok := s.Roots[sym]; ok {
		return id
	}
	return NoType
}

// Compile validates the schema's internal consistency, checks every content
// model for 1-unambiguity (the XML Schema UPA constraint / determinism
// requirement the paper's optimality results rest on), compiles content
// models to minimal DFAs, and prunes non-productive types (§3). It must be
// called before validation or relation computation; loaders call it
// automatically.
func (s *Schema) Compile() error { return s.CompileWith(nil) }

// CompileWith is Compile drawing content models from a ModelTable: a model
// the table holds is reused instead of recompiled, anything else compiles
// locally (and is not inserted). Every type's DFA is its model's local
// automaton relabelled onto the schema's alphabet, so the result is the
// same with a nil, cold or warm table.
func (s *Schema) CompileWith(models *ModelTable) error {
	if s.compiled {
		return nil
	}
	syms := make([][]fa.Symbol, len(s.Types))
	for _, t := range s.Types {
		if t.Simple {
			continue
		}
		if t.Content == nil {
			return fmt.Errorf("schema: complex type %q has no content model", t.Name)
		}
		m := models.model(t.Content, !t.SkipUPA)
		// Every label used in regexp_τ must have a child type assigned,
		// and that type must exist.
		local := make([]fa.Symbol, len(m.Labels))
		for i, label := range m.Labels {
			sym := s.Alpha.Intern(label)
			local[i] = sym
			child, ok := t.Child[sym]
			if !ok {
				return fmt.Errorf("schema: type %q uses label %q without a child type", t.Name, label)
			}
			if int(child) < 0 || int(child) >= len(s.Types) {
				return fmt.Errorf("schema: type %q label %q references unknown type id %d", t.Name, label, child)
			}
		}
		if !t.SkipUPA && !m.OneUnambiguous {
			return fmt.Errorf("schema: content model of type %q (%s) is not 1-unambiguous",
				t.Name, regexpsym.String(t.Content))
		}
		t.Model, syms[t.ID] = m, local
	}
	for _, τ := range s.Roots {
		if int(τ) < 0 || int(τ) >= len(s.Types) {
			return fmt.Errorf("schema: root references unknown type id %d", τ)
		}
	}
	// Relabel after all labels are interned so every DFA shares the full
	// alphabet (required for cross-schema automaton products).
	for _, t := range s.Types {
		if !t.Simple {
			t.DFA = t.Model.DFA.Relabel(syms[t.ID], s.Alpha.Size())
		}
	}
	if err := s.pruneNonProductive(); err != nil {
		return err
	}
	s.compiled = true
	return nil
}

// MustCompile is Compile that panics on error; for tests and literals.
func (s *Schema) MustCompile() *Schema {
	if err := s.Compile(); err != nil {
		panic(err)
	}
	return s
}

// Compiled reports whether Compile has run since the last mutation.
func (s *Schema) Compiled() bool { return s.compiled }

// WidenToAlphabet re-lays every content automaton out over the alphabet's
// current size. When several schemas share one Alphabet, a schema compiled
// before another interned new labels holds DFAs over the smaller symbol
// space; cross-schema automaton operations require equal widths. Idempotent
// and cheap when already wide enough.
func (s *Schema) WidenToAlphabet() {
	w := s.Alpha.Size()
	for _, t := range s.Types {
		if !t.Simple && t.DFA != nil && t.DFA.NumSymbols() < w {
			t.DFA = t.DFA.Widen(w)
		}
	}
}

// IsDTD reports whether the schema has DTD shape: every element label is
// assigned the same type wherever it occurs (in any types_τ and in R).
// §3.4's optimizations apply exactly to such schemas.
func (s *Schema) IsDTD() bool {
	assigned := map[fa.Symbol]TypeID{}
	consistent := func(sym fa.Symbol, τ TypeID) bool {
		if prev, ok := assigned[sym]; ok {
			return prev == τ
		}
		assigned[sym] = τ
		return true
	}
	for _, t := range s.Types {
		for sym, child := range t.Child {
			if !consistent(sym, child) {
				return false
			}
		}
	}
	for sym, τ := range s.Roots {
		if !consistent(sym, τ) {
			return false
		}
	}
	return true
}

// String renders the schema as an abstract-schema table in the style of the
// paper's Table 1.
func (s *Schema) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Types))
	for _, t := range s.Types {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "abstract XML schema: %d types, |Σ|=%d\n", len(s.Types), s.Alpha.Size())
	var roots []string
	for sym, τ := range s.Roots {
		roots = append(roots, fmt.Sprintf("%s→%s", s.Alpha.Name(sym), s.Types[τ].Name))
	}
	sort.Strings(roots)
	fmt.Fprintf(&b, "R: %s\n", strings.Join(roots, ", "))
	for _, name := range names {
		t := s.Types[s.byName[name]]
		if t.Simple {
			fmt.Fprintf(&b, "%s: simple", t.Name)
			if t.Value != nil {
				fmt.Fprintf(&b, " %s", t.Value)
			}
			b.WriteByte('\n')
			continue
		}
		fmt.Fprintf(&b, "%s: %s\n", t.Name, regexpsym.String(t.Content))
		var kids []string
		for sym, child := range t.Child {
			kids = append(kids, fmt.Sprintf("%s→%s", s.Alpha.Name(sym), s.Types[child].Name))
		}
		sort.Strings(kids)
		for _, k := range kids {
			fmt.Fprintf(&b, "    %s\n", k)
		}
	}
	return b.String()
}
