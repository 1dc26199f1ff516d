// Package xsd loads W3C XML Schema documents into abstract XML schemas
// (EDBT'04 §3). The supported subset is the structural core the paper's
// formalism models:
//
//   - global and local element declarations, by name or ref
//   - named and anonymous complexType with sequence / choice / all groups,
//     arbitrarily nested, with minOccurs/maxOccurs (including "unbounded")
//   - named and anonymous simpleType restrictions over the common primitive
//     types, with the facets minInclusive/maxInclusive/minExclusive/
//     maxExclusive/minLength/maxLength/length/enumeration, and xs:list
//   - built-in type references (xsd:string, xsd:decimal, xsd:date, …)
//   - complexContent derivation: extension (base content followed by the
//     extension particle, bindings inherited) and restriction (re-declared
//     content); simpleContent derivation (maps to the base simple type,
//     attributes skipped)
//   - named top-level model groups (xs:group) referenced from particles
//   - identity constraints (xs:unique / xs:key / xs:keyref) with the XSD
//     restricted-XPath selector/field subset, surfaced on Schema.Ident
//
// Outside the subset (attributes, substitution groups, union types, mixed
// content, wildcards, imports) the loader fails with a descriptive error
// rather than silently mis-modelling the schema; the paper leaves the same
// features out of its formalism.
package xsd

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/fa"
	"repro/internal/ident"
	"repro/internal/schema"
	"repro/internal/xmltree"
)

// Options configure XSD loading.
type Options struct {
	// Alpha, when non-nil, is the shared alphabet to intern labels into
	// (required when the schema will be compared against another).
	Alpha *fa.Alphabet
	// Models, when non-nil, supplies already-compiled content models
	// (schema.CompileWith); the loaded schema is the same either way.
	Models *schema.ModelTable
}

// Parse loads an XSD document from r into a compiled abstract XML schema.
func Parse(r io.Reader, opts Options) (*schema.Schema, error) {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("xsd: %w", err)
	}
	return FromTree(doc, opts)
}

// ParseString loads an XSD document held in a string.
func ParseString(src string, opts Options) (*schema.Schema, error) {
	return Parse(strings.NewReader(src), opts)
}

// MustParseString is ParseString that panics on error; for fixtures.
func MustParseString(src string, opts Options) *schema.Schema {
	s, err := ParseString(src, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// FromTree loads an already-parsed XSD document tree.
func FromTree(doc *xmltree.Node, opts Options) (*schema.Schema, error) {
	if doc.Label != "schema" {
		return nil, fmt.Errorf("xsd: root element is %q, want schema", doc.Label)
	}
	ld := &loader{
		s:               schema.New(opts.Alpha),
		namedComplex:    map[string]*xmltree.Node{},
		namedSimple:     map[string]*xmltree.Node{},
		globalElems:     map[string]*xmltree.Node{},
		builtComplex:    map[string]schema.TypeID{},
		builtSimple:     map[string]schema.TypeID{},
		building:        map[string]bool{},
		constraintsDone: map[*xmltree.Node]bool{},
		namedGroups:     map[string]*xmltree.Node{},
		groupBuilding:   map[string]bool{},
	}
	// Pass 1: index global declarations.
	for _, c := range doc.Children {
		if c.IsText() {
			continue
		}
		name, _ := c.AttrValue("name")
		switch c.Label {
		case "element":
			if name == "" {
				return nil, fmt.Errorf("xsd: global element without a name")
			}
			if _, dup := ld.globalElems[name]; dup {
				return nil, fmt.Errorf("xsd: global element %q declared twice", name)
			}
			ld.globalElems[name] = c
			ld.globalOrder = append(ld.globalOrder, name)
		case "complexType":
			if name == "" {
				return nil, fmt.Errorf("xsd: global complexType without a name")
			}
			ld.namedComplex[name] = c
		case "simpleType":
			if name == "" {
				return nil, fmt.Errorf("xsd: global simpleType without a name")
			}
			ld.namedSimple[name] = c
		case "annotation", "include", "import":
			// annotations are ignorable; include/import are unsupported
			if c.Label != "annotation" {
				return nil, fmt.Errorf("xsd: %s is not supported (schemas must be self-contained)", c.Label)
			}
		case "group":
			if name == "" {
				return nil, fmt.Errorf("xsd: global group without a name")
			}
			if _, dup := ld.namedGroups[name]; dup {
				return nil, fmt.Errorf("xsd: group %q declared twice", name)
			}
			ld.namedGroups[name] = c
		case "attribute", "attributeGroup", "notation":
			return nil, fmt.Errorf("xsd: global %s declarations are not supported", c.Label)
		default:
			return nil, fmt.Errorf("xsd: unexpected global declaration %q", c.Label)
		}
	}
	// Pass 2: build every global element's type and register roots.
	for _, name := range ld.globalOrder {
		elem := ld.globalElems[name]
		τ, err := ld.elementType(elem, name)
		if err != nil {
			return nil, err
		}
		ld.s.SetRoot(name, τ)
	}
	if err := ld.s.CompileWith(opts.Models); err != nil {
		return nil, fmt.Errorf("xsd: %w", err)
	}
	if len(ld.constraints) > 0 {
		v, err := ident.NewValidator(ld.constraints)
		if err != nil {
			return nil, fmt.Errorf("xsd: %w", err)
		}
		ld.s.Ident = v
	}
	return ld.s, nil
}

type loader struct {
	s            *schema.Schema
	namedComplex map[string]*xmltree.Node
	namedSimple  map[string]*xmltree.Node
	globalElems  map[string]*xmltree.Node
	globalOrder  []string
	builtComplex map[string]schema.TypeID
	builtSimple  map[string]schema.TypeID
	building     map[string]bool
	anonCounter  int

	constraints     []*ident.Constraint
	constraintsDone map[*xmltree.Node]bool

	namedGroups   map[string]*xmltree.Node
	groupBuilding map[string]bool
}

// elementType resolves the type of an element declaration: a type attribute
// reference, an inline anonymous complexType/simpleType, or (absent both)
// the unconstrained simple type — the closest tree-model approximation of
// xs:anyType, documented as such.
func (ld *loader) elementType(elem *xmltree.Node, context string) (schema.TypeID, error) {
	var inline *xmltree.Node
	for _, c := range elem.Children {
		if c.IsText() || c.Label == "annotation" {
			continue
		}
		switch c.Label {
		case "complexType", "simpleType":
			if inline != nil {
				return schema.NoType, fmt.Errorf("xsd: element %q has multiple inline types", context)
			}
			inline = c
		case "key", "keyref", "unique":
			if err := ld.identityConstraint(elem, c); err != nil {
				return schema.NoType, err
			}
		default:
			return schema.NoType, fmt.Errorf("xsd: unexpected %q inside element %q", c.Label, context)
		}
	}
	if ref, ok := elem.AttrValue("type"); ok {
		if inline != nil {
			return schema.NoType, fmt.Errorf("xsd: element %q has both a type attribute and an inline type", context)
		}
		return ld.resolveTypeRef(ref, context)
	}
	if inline == nil {
		// xs:anyType; approximate with the unconstrained simple type.
		return ld.anySimple(context)
	}
	ld.anonCounter++
	anonName := fmt.Sprintf("%s#anon%d", context, ld.anonCounter)
	if inline.Label == "simpleType" {
		return ld.buildSimple(anonName, inline)
	}
	return ld.buildComplex(anonName, inline)
}

func (ld *loader) anySimple(context string) (schema.TypeID, error) {
	const name = "#anySimpleType"
	if id, ok := ld.builtSimple[name]; ok {
		return id, nil
	}
	id, err := ld.s.AddSimpleType(name, nil)
	if err != nil {
		return schema.NoType, fmt.Errorf("xsd: %w", err)
	}
	ld.builtSimple[name] = id
	return id, nil
}

// resolveTypeRef resolves a QName type reference: a user-declared named
// type shadows a built-in of the same local name; prefixed names strip
// their prefix (the loader is namespace-flattening, like the rest of this
// reproduction).
func (ld *loader) resolveTypeRef(ref, context string) (schema.TypeID, error) {
	local := ref
	if i := strings.LastIndexByte(ref, ':'); i >= 0 {
		local = ref[i+1:]
	}
	if node, ok := ld.namedComplex[local]; ok {
		// Complex types may reference themselves through their content
		// (recursive structures); buildComplex registers the type shell
		// before descending, so a cache hit may be a type under
		// construction — which is exactly right.
		if id, ok := ld.builtComplex[local]; ok {
			return id, nil
		}
		return ld.buildComplex(local, node)
	}
	if node, ok := ld.namedSimple[local]; ok {
		if id, ok := ld.builtSimple[local]; ok {
			return id, nil
		}
		if ld.building[local] {
			return schema.NoType, fmt.Errorf("xsd: simpleType %q is defined in terms of itself", local)
		}
		ld.building[local] = true
		defer delete(ld.building, local)
		id, err := ld.buildSimple(local, node)
		if err != nil {
			return schema.NoType, err
		}
		ld.builtSimple[local] = id
		return id, nil
	}
	if base, ok := schema.BaseKindByName(local); ok {
		return ld.builtin(local, base)
	}
	return schema.NoType, fmt.Errorf("xsd: element %q references unknown type %q", context, ref)
}

// builtin declares (once) a simple type for a built-in primitive.
func (ld *loader) builtin(local string, base schema.BaseKind) (schema.TypeID, error) {
	name := "xsd:" + local
	if id, ok := ld.builtSimple[name]; ok {
		return id, nil
	}
	var st *schema.SimpleType
	if base != schema.AnySimple {
		st = schema.NewSimpleType(base)
	}
	id, err := ld.s.AddSimpleType(name, st)
	if err != nil {
		return schema.NoType, fmt.Errorf("xsd: %w", err)
	}
	ld.builtSimple[name] = id
	return id, nil
}
