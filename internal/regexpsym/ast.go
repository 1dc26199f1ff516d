// Package regexpsym implements regular expressions whose atoms are XML
// element labels rather than characters. Content models of DTDs and XML
// Schemas compile through this package: an expression parses to an AST,
// the Glushkov (position) construction turns the AST into an NFA whose
// determinism coincides with 1-unambiguity — the XML Schema Unique Particle
// Attribution constraint (Brüggemann-Klein & Wood) — and subset
// construction plus Hopcroft minimization yield the DFA the revalidation
// algorithms run.
package regexpsym

import (
	"fmt"
	"strings"
)

// Unbounded marks an occurrence range with no upper limit (maxOccurs
// "unbounded").
const Unbounded = -1

// Node is a node of a symbolic regular expression AST.
type Node interface {
	// writeTo renders the node using DTD-style syntax.
	writeTo(b *strings.Builder, prec int)
}

// Epsilon matches only the empty label string (an EMPTY content model).
type Epsilon struct{}

// Sym matches exactly one element with the given label.
type Sym struct{ Name string }

// Seq matches the concatenation of its children, in order (DTD/XSD
// sequence).
type Seq struct{ Kids []Node }

// Alt matches any one of its children (DTD/XSD choice).
type Alt struct{ Kids []Node }

// Repeat matches between Min and Max occurrences of its child; Max may be
// Unbounded. `e?` is Repeat{e,0,1}, `e*` is Repeat{e,0,Unbounded}, `e+` is
// Repeat{e,1,Unbounded}.
type Repeat struct {
	Kid      Node
	Min, Max int
}

// Convenience constructors, used heavily by the schema compilers and tests.

// Lbl returns a single-label atom.
func Lbl(name string) Node { return Sym{Name: name} }

// Cat returns the sequence of kids, flattening nested sequences and
// simplifying the 0- and 1-child cases.
func Cat(kids ...Node) Node {
	flat := make([]Node, 0, len(kids))
	for _, k := range kids {
		if s, ok := k.(Seq); ok {
			flat = append(flat, s.Kids...)
			continue
		}
		if _, ok := k.(Epsilon); ok {
			continue
		}
		flat = append(flat, k)
	}
	switch len(flat) {
	case 0:
		return Epsilon{}
	case 1:
		return flat[0]
	}
	return Seq{Kids: flat}
}

// Or returns the choice of kids, flattening nested choices and simplifying
// the 1-child case.
func Or(kids ...Node) Node {
	flat := make([]Node, 0, len(kids))
	for _, k := range kids {
		if a, ok := k.(Alt); ok {
			flat = append(flat, a.Kids...)
			continue
		}
		flat = append(flat, k)
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return Alt{Kids: flat}
}

// Opt returns kid? .
func Opt(kid Node) Node { return Repeat{Kid: kid, Min: 0, Max: 1} }

// Star returns kid* .
func Star(kid Node) Node { return Repeat{Kid: kid, Min: 0, Max: Unbounded} }

// Plus returns kid+ .
func Plus(kid Node) Node { return Repeat{Kid: kid, Min: 1, Max: Unbounded} }

// Bound returns kid{min,max}; max may be Unbounded.
func Bound(kid Node, min, max int) Node { return Repeat{Kid: kid, Min: min, Max: max} }

// String renders the expression in the syntax accepted by Parse.
func String(n Node) string {
	var b strings.Builder
	n.writeTo(&b, 0)
	return b.String()
}

// Key returns the expression's rendering as a content-model table key, and
// whether that rendering identifies the model: Parse reads it back to an
// expression with the same labels in the same order and the same position
// automaton. It does not when a label is not a name Parse reads back as
// that label (the keyword EMPTY, or a name with syntax characters), when
// a sequence or choice is empty (both render as nothing), or when an
// occurrence bound is one Parse rejects; such models must not be shared
// under their rendering.
func Key(n Node) (string, bool) {
	if !keyable(n) {
		return "", false
	}
	return String(n), true
}

func keyable(n Node) bool {
	switch t := n.(type) {
	case Epsilon:
		return true
	case Sym:
		return t.Name != "EMPTY" && ValidName(t.Name)
	case Seq:
		return len(t.Kids) > 0 && allKeyable(t.Kids)
	case Alt:
		return len(t.Kids) > 0 && allKeyable(t.Kids)
	case Repeat:
		return t.Min >= 0 && (t.Max == Unbounded || t.Max >= t.Min) && keyable(t.Kid)
	default:
		return false
	}
}

func allKeyable(kids []Node) bool {
	for _, k := range kids {
		if !keyable(k) {
			return false
		}
	}
	return true
}

// Precedence levels for rendering: alt < seq < postfix.
const (
	precAlt = iota
	precSeq
	precPostfix
)

func (Epsilon) writeTo(b *strings.Builder, prec int) { b.WriteString("EMPTY") }

func (s Sym) writeTo(b *strings.Builder, prec int) { b.WriteString(s.Name) }

func (s Seq) writeTo(b *strings.Builder, prec int) {
	parens := prec > precSeq
	if parens {
		b.WriteByte('(')
	}
	for i, k := range s.Kids {
		if i > 0 {
			b.WriteString(", ")
		}
		k.writeTo(b, precSeq+1)
	}
	if parens {
		b.WriteByte(')')
	}
}

func (a Alt) writeTo(b *strings.Builder, prec int) {
	parens := prec > precAlt
	if parens {
		b.WriteByte('(')
	}
	for i, k := range a.Kids {
		if i > 0 {
			b.WriteString(" | ")
		}
		k.writeTo(b, precAlt+1)
	}
	if parens {
		b.WriteByte(')')
	}
}

func (r Repeat) writeTo(b *strings.Builder, prec int) {
	r.Kid.writeTo(b, precPostfix)
	switch {
	case r.Min == 0 && r.Max == 1:
		b.WriteByte('?')
	case r.Min == 0 && r.Max == Unbounded:
		b.WriteByte('*')
	case r.Min == 1 && r.Max == Unbounded:
		b.WriteByte('+')
	case r.Max == Unbounded:
		fmt.Fprintf(b, "{%d,}", r.Min)
	case r.Min == r.Max:
		fmt.Fprintf(b, "{%d}", r.Min)
	default:
		fmt.Fprintf(b, "{%d,%d}", r.Min, r.Max)
	}
}

// Labels returns the set of distinct element labels used in the expression,
// in first-occurrence order. This is the paper's Σ_τ for a type's content
// model.
func Labels(n Node) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(Node)
	walk = func(n Node) {
		switch t := n.(type) {
		case Epsilon:
		case Sym:
			if !seen[t.Name] {
				seen[t.Name] = true
				out = append(out, t.Name)
			}
		case Seq:
			for _, k := range t.Kids {
				walk(k)
			}
		case Alt:
			for _, k := range t.Kids {
				walk(k)
			}
		case Repeat:
			walk(t.Kid)
		default:
			panic(fmt.Sprintf("regexpsym: unknown node %T", n))
		}
	}
	walk(n)
	return out
}

// Nullable reports whether the expression matches the empty string.
func Nullable(n Node) bool {
	switch t := n.(type) {
	case Epsilon:
		return true
	case Sym:
		return false
	case Seq:
		for _, k := range t.Kids {
			if !Nullable(k) {
				return false
			}
		}
		return true
	case Alt:
		for _, k := range t.Kids {
			if Nullable(k) {
				return true
			}
		}
		return false
	case Repeat:
		return t.Min == 0 || Nullable(t.Kid)
	default:
		panic(fmt.Sprintf("regexpsym: unknown node %T", n))
	}
}
