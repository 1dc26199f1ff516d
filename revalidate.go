// Package revalidate is an efficient schema-based revalidator for XML: an
// implementation of Raghavachari & Shmueli, "Efficient Schema-Based
// Revalidation of XML" (EDBT 2004).
//
// The library answers the schema cast validation question: given an XML
// document already known to be valid with respect to a source schema,
// is it valid with respect to a target schema? Instead of revalidating
// from scratch, a Caster preprocesses the two schemas — computing which
// type pairs are subsumed (every source-valid subtree is target-valid) or
// disjoint (no tree is valid for both), and deriving immediate decision
// automata for content models — and then validates documents while
// skipping subsumed subtrees and rejecting at the first disjoint pair.
// For schema pairs that differ locally, validation cost becomes
// proportional to the difference between the schemas rather than to
// document size.
//
// The same machinery handles documents edited between validations
// (schema cast with modifications): edits are Δ-encoded through an
// EditSession, a Dewey-number trie localizes the changed regions, and
// untouched subtrees fall back to the plain cast.
//
// # Quick start
//
//	u := revalidate.NewUniverse()
//	src, _ := u.LoadXSDString(sourceXSD) // billTo optional
//	dst, _ := u.LoadXSDString(targetXSD) // billTo required
//	caster, _ := revalidate.NewCaster(src, dst)
//
//	doc, _ := revalidate.ParseDocumentString(poXML)
//	if err := caster.Validate(doc); err != nil {
//	    // not valid under the target schema
//	}
//
// Schemas that will be compared must be loaded through one Universe, which
// interns element labels into a shared symbol space.
package revalidate

import (
	"fmt"
	"io"

	"repro/internal/dtd"
	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/xsd"
)

// Universe is the label-interning scope shared by schemas that are to be
// compared or cast between. All schemas of one Universe share an alphabet.
type Universe struct {
	alpha *fa.Alphabet
	// models, when non-nil, shares compiled content models across loads
	// (see NewUniverseModels); loaded schemas are the same without it.
	models *schema.ModelTable
}

// NewUniverse returns an empty universe.
func NewUniverse() *Universe {
	return &Universe{alpha: fa.NewAlphabet()}
}

// Schema is a compiled abstract XML schema (the paper's (Σ, T, ρ, R)
// formalism) bound to its universe.
type Schema struct {
	u *Universe
	s *schema.Schema
}

// LoadXSD loads a W3C XML Schema document. See the supported-subset note
// in the package documentation: the structural core (elements, sequence/
// choice/all groups, occurrence bounds, simple-type restriction facets) is
// supported; attributes are ignored and schema features outside the
// paper's formalism are rejected with descriptive errors.
func (u *Universe) LoadXSD(r io.Reader) (*Schema, error) {
	s, err := xsd.Parse(r, xsd.Options{Alpha: u.alpha, Models: u.models})
	if err != nil {
		return nil, err
	}
	return &Schema{u: u, s: s}, nil
}

// LoadXSDString loads an XSD document held in a string.
func (u *Universe) LoadXSDString(src string) (*Schema, error) {
	s, err := xsd.ParseString(src, xsd.Options{Alpha: u.alpha, Models: u.models})
	if err != nil {
		return nil, err
	}
	return &Schema{u: u, s: s}, nil
}

// LoadDTD loads a Document Type Definition. root, when non-empty, fixes
// the document root element; otherwise a <!DOCTYPE> wrapper (if present)
// decides, and failing that every declared element may be a root.
func (u *Universe) LoadDTD(src, root string) (*Schema, error) {
	s, err := dtd.Parse(src, dtd.Options{Alpha: u.alpha, Models: u.models, Root: root})
	if err != nil {
		return nil, err
	}
	return &Schema{u: u, s: s}, nil
}

// Universe returns the universe the schema was loaded into.
func (s *Schema) Universe() *Universe { return s.u }

// IsDTD reports whether the schema is DTD-shaped: every element label has
// the same type in every context. The DTD label-index optimization
// (Caster.ValidateIndexed) requires this of both schemas.
func (s *Schema) IsDTD() bool { return s.s.IsDTD() }

// TypeNames returns the names of all declared types.
func (s *Schema) TypeNames() []string {
	out := make([]string, len(s.s.Types))
	for i, t := range s.s.Types {
		out[i] = t.Name
	}
	return out
}

// String renders the schema as an abstract-schema table (in the style of
// the paper's Table 1).
func (s *Schema) String() string { return s.s.String() }

// Validate fully validates a document against the schema (no source-schema
// knowledge — the paper's doValidate). For revalidation of documents with
// a known source schema, use a Caster instead.
func (s *Schema) Validate(doc *Document) error {
	return s.s.Validate(doc.root)
}

// sameUniverse guards binary operations across schemas.
func sameUniverse(a, b *Schema) error {
	if a.u != b.u {
		return fmt.Errorf("revalidate: schemas belong to different universes; load both through one Universe")
	}
	return nil
}
