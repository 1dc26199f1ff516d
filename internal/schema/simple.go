package schema

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// BaseKind is the primitive value space a simple type restricts. The paper
// merges all simple types into one; this small hierarchy is the
// "straightforward extension" it describes, sufficient for XSD schemas like
// the paper's Figure 2 (string, decimal, positiveInteger with maxExclusive,
// date).
type BaseKind uint8

const (
	// AnySimple accepts any text value (the paper's single χ type).
	AnySimple BaseKind = iota
	// StringKind accepts any text value; length and enumeration facets
	// apply.
	StringKind
	// BooleanKind accepts true/false/1/0.
	BooleanKind
	// DecimalKind accepts decimal numerals.
	DecimalKind
	// IntegerKind accepts integer numerals.
	IntegerKind
	// PositiveIntegerKind accepts integers ≥ 1.
	PositiveIntegerKind
	// DateKind accepts ISO dates (YYYY-MM-DD).
	DateKind
)

var baseNames = map[BaseKind]string{
	AnySimple:           "anySimpleType",
	StringKind:          "string",
	BooleanKind:         "boolean",
	DecimalKind:         "decimal",
	IntegerKind:         "integer",
	PositiveIntegerKind: "positiveInteger",
	DateKind:            "date",
}

func (b BaseKind) String() string {
	if n, ok := baseNames[b]; ok {
		return n
	}
	return fmt.Sprintf("BaseKind(%d)", uint8(b))
}

// BaseKindByName resolves the xsd:-style local name of a primitive type.
// Unknown names map to AnySimple with ok=false so loaders can degrade
// gracefully.
func BaseKindByName(name string) (BaseKind, bool) {
	switch name {
	case "string", "normalizedString", "token", "anyURI", "ID", "IDREF", "NMTOKEN", "Name", "NCName":
		return StringKind, true
	case "boolean":
		return BooleanKind, true
	case "decimal", "float", "double":
		return DecimalKind, true
	case "integer", "int", "long", "short", "byte", "nonNegativeInteger",
		"unsignedInt", "unsignedLong", "unsignedShort", "unsignedByte", "negativeInteger", "nonPositiveInteger":
		return IntegerKind, true
	case "positiveInteger":
		return PositiveIntegerKind, true
	case "date":
		return DateKind, true
	case "anySimpleType":
		return AnySimple, true
	}
	return AnySimple, false
}

// SimpleType is a facet-constrained simple type. A nil *SimpleType is the
// unconstrained simple type; construct non-nil values with NewSimpleType
// (the length facets use -1 for "unset", so the zero value is not useful).
type SimpleType struct {
	Base BaseKind
	// Numeric bound facets; nil means unset. They apply to numeric bases.
	MinInclusive, MaxInclusive *float64
	MinExclusive, MaxExclusive *float64
	// Length facets; -1 means unset. They apply to string bases.
	MinLength, MaxLength int
	// Enumeration, when non-empty, restricts values to this set.
	Enumeration []string
	// ListItem, when non-nil, makes this a list type (xs:list): the value
	// is a whitespace-separated sequence of items, each satisfying
	// ListItem. The length facets then constrain the item count.
	ListItem *SimpleType
}

// NewSimpleType returns an unconstrained simple type of the given base.
func NewSimpleType(base BaseKind) *SimpleType {
	return &SimpleType{Base: base, MinLength: -1, MaxLength: -1}
}

// WithMaxExclusive returns a copy with the maxExclusive facet set.
func (st *SimpleType) WithMaxExclusive(v float64) *SimpleType {
	c := *st
	c.MaxExclusive = &v
	return &c
}

// WithMinInclusive returns a copy with the minInclusive facet set.
func (st *SimpleType) WithMinInclusive(v float64) *SimpleType {
	c := *st
	c.MinInclusive = &v
	return &c
}

// WithMaxInclusive returns a copy with the maxInclusive facet set.
func (st *SimpleType) WithMaxInclusive(v float64) *SimpleType {
	c := *st
	c.MaxInclusive = &v
	return &c
}

// WithMinExclusive returns a copy with the minExclusive facet set.
func (st *SimpleType) WithMinExclusive(v float64) *SimpleType {
	c := *st
	c.MinExclusive = &v
	return &c
}

// WithEnumeration returns a copy restricted to the given values.
func (st *SimpleType) WithEnumeration(values ...string) *SimpleType {
	c := *st
	c.Enumeration = append([]string(nil), values...)
	return &c
}

// WithLength returns a copy with length facets (use -1 to leave one unset).
func (st *SimpleType) WithLength(min, max int) *SimpleType {
	c := *st
	c.MinLength, c.MaxLength = min, max
	return &c
}

// NewListType returns a list type over the given item type (xs:list).
func NewListType(item *SimpleType) *SimpleType {
	st := NewSimpleType(AnySimple)
	st.ListItem = item
	return st
}

func (st *SimpleType) String() string {
	if st == nil {
		return "anySimpleType"
	}
	var parts []string
	if st.ListItem != nil {
		parts = append(parts, "list of "+st.ListItem.String())
	} else {
		parts = append(parts, st.Base.String())
	}
	if st.MinInclusive != nil {
		parts = append(parts, fmt.Sprintf("minInclusive=%g", *st.MinInclusive))
	}
	if st.MaxInclusive != nil {
		parts = append(parts, fmt.Sprintf("maxInclusive=%g", *st.MaxInclusive))
	}
	if st.MinExclusive != nil {
		parts = append(parts, fmt.Sprintf("minExclusive=%g", *st.MinExclusive))
	}
	if st.MaxExclusive != nil {
		parts = append(parts, fmt.Sprintf("maxExclusive=%g", *st.MaxExclusive))
	}
	if st.MinLength >= 0 {
		parts = append(parts, fmt.Sprintf("minLength=%d", st.MinLength))
	}
	if st.MaxLength >= 0 {
		parts = append(parts, fmt.Sprintf("maxLength=%d", st.MaxLength))
	}
	if len(st.Enumeration) > 0 {
		parts = append(parts, fmt.Sprintf("enum{%s}", strings.Join(st.Enumeration, ",")))
	}
	return strings.Join(parts, " ")
}

// AcceptsValue reports whether the text value conforms to the simple type.
// A nil receiver (the unconstrained simple type) accepts everything.
func (st *SimpleType) AcceptsValue(value string) bool {
	if st == nil {
		return true
	}
	if st.ListItem != nil {
		// Items are walked in place, not collected with strings.Fields:
		// a slice of substrings would make value escape, and every
		// streaming facet check converts its text buffer to value.
		n := 0
		for rest := value; ; {
			var item string
			item, rest = nextListItem(rest)
			if item == "" {
				break
			}
			n++
			if st.MaxLength >= 0 && n > st.MaxLength || !st.ListItem.AcceptsValue(item) {
				return false
			}
		}
		if st.MinLength >= 0 && n < st.MinLength {
			return false
		}
		if len(st.Enumeration) > 0 {
			found := false
			for _, e := range st.Enumeration {
				if e == strings.TrimSpace(value) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	v := strings.TrimSpace(value) // xsd whitespace collapse for non-string bases
	var num float64
	switch st.Base {
	case AnySimple, StringKind:
		// length facets apply to the raw value for string kinds
	case BooleanKind:
		if v != "true" && v != "false" && v != "1" && v != "0" {
			return false
		}
	case DecimalKind:
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return false
		}
		num = f
	case IntegerKind, PositiveIntegerKind:
		i, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return false
		}
		if st.Base == PositiveIntegerKind && i < 1 {
			return false
		}
		num = float64(i)
	case DateKind:
		if _, err := time.Parse("2006-01-02", v); err != nil {
			return false
		}
	}
	if numericBase(st.Base) {
		if st.MinInclusive != nil && num < *st.MinInclusive {
			return false
		}
		if st.MaxInclusive != nil && num > *st.MaxInclusive {
			return false
		}
		if st.MinExclusive != nil && num <= *st.MinExclusive {
			return false
		}
		if st.MaxExclusive != nil && num >= *st.MaxExclusive {
			return false
		}
	}
	if st.MinLength >= 0 && len(value) < st.MinLength {
		return false
	}
	if st.MaxLength >= 0 && len(value) > st.MaxLength {
		return false
	}
	if len(st.Enumeration) > 0 {
		found := false
		for _, e := range st.Enumeration {
			if e == v || e == value {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// nextListItem splits the first whitespace-separated item off s, with the
// separators strings.Fields uses; item is empty when s holds no more.
func nextListItem(s string) (item, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	end := strings.IndexFunc(s, unicode.IsSpace)
	if end < 0 {
		return s, ""
	}
	return s[:end], s[end:]
}

func numericBase(b BaseKind) bool {
	switch b {
	case DecimalKind, IntegerKind, PositiveIntegerKind:
		return true
	}
	return false
}

// effective numeric range of a simple type as [lo, hi] with inclusivity
// flags; ok=false when the base is non-numeric.
func (st *SimpleType) numericRange() (lo, hi float64, loIncl, hiIncl, ok bool) {
	if st == nil || !numericBase(st.Base) {
		return 0, 0, false, false, false
	}
	lo, hi = negInf, posInf
	loIncl, hiIncl = true, true
	if st.Base == PositiveIntegerKind {
		lo, loIncl = 1, true
	}
	if st.MinInclusive != nil && *st.MinInclusive > lo {
		lo, loIncl = *st.MinInclusive, true
	}
	if st.MinExclusive != nil && *st.MinExclusive >= lo {
		lo, loIncl = *st.MinExclusive, false
	}
	if st.MaxInclusive != nil && *st.MaxInclusive < hi {
		hi, hiIncl = *st.MaxInclusive, true
	}
	if st.MaxExclusive != nil && *st.MaxExclusive <= hi {
		hi, hiIncl = *st.MaxExclusive, false
	}
	return lo, hi, loIncl, hiIncl, true
}

var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)

// SimpleSubsumed reports whether every value accepted by a is accepted by
// b, conservatively: true only when subsumption is certain. (Soundness is
// what R_sub needs; incompleteness merely costs skipping opportunities.)
func SimpleSubsumed(a, b *SimpleType) bool {
	if b == nil || b.Base == AnySimple && noFacets(b) {
		return true
	}
	if a == nil {
		return false // unconstrained a, constrained b
	}
	// List types: both lists with nested item spaces and length windows,
	// or conservative false (a list value like "1 2" is rarely valid for a
	// scalar type, and vice versa — only certainty may answer true).
	if a.ListItem != nil || b.ListItem != nil {
		if a.ListItem == nil || b.ListItem == nil {
			return false
		}
		if !SimpleSubsumed(a.ListItem, b.ListItem) {
			return false
		}
		aMin, aMax := lengthWindow(a)
		bMin, bMax := lengthWindow(b)
		if aMin < bMin {
			return false
		}
		if bMax >= 0 && (aMax < 0 || aMax > bMax) {
			return false
		}
		return len(b.Enumeration) == 0
	}
	if !baseSubsumed(a.Base, b.Base) {
		return false
	}
	// Enumerated a: check each value directly — exact, not conservative.
	if len(a.Enumeration) > 0 {
		for _, v := range a.Enumeration {
			if !b.AcceptsValue(v) {
				return false
			}
		}
		return true
	}
	if len(b.Enumeration) > 0 {
		return false // non-enumerated a can take values outside b's enum
	}
	// Numeric range nesting.
	if numericBase(a.Base) {
		alo, ahi, aloI, ahiI, _ := a.numericRange()
		blo, bhi, bloI, bhiI, ok := b.numericRange()
		if !ok {
			// b is string-like (baseSubsumed held): sound only when b has
			// no facets of its own.
			return noFacets(b)
		}
		if alo < blo || (alo == blo && aloI && !bloI) {
			return false
		}
		if ahi > bhi || (ahi == bhi && ahiI && !bhiI) {
			return false
		}
		return true
	}
	// String-ish: length nesting.
	aMin, aMax := a.MinLength, a.MaxLength
	if aMin < 0 {
		aMin = 0
	}
	if b.MinLength >= 0 && aMin < b.MinLength {
		return false
	}
	if b.MaxLength >= 0 && (aMax < 0 || aMax > b.MaxLength) {
		return false
	}
	return true
}

// baseSubsumed reports whether every lexical value of base a is a valid
// value of base b.
func baseSubsumed(a, b BaseKind) bool {
	if a == b || b == AnySimple || b == StringKind {
		return true
	}
	switch a {
	case PositiveIntegerKind:
		return b == IntegerKind || b == DecimalKind
	case IntegerKind:
		return b == DecimalKind
	case BooleanKind:
		return false // "true" is not a decimal; "1" is — mixed, so no
	}
	return false
}

// SimpleDisjoint reports whether no value is accepted by both a and b,
// conservatively: true only when disjointness is certain.
func SimpleDisjoint(a, b *SimpleType) bool {
	if a == nil || b == nil {
		return false
	}
	if a.ListItem != nil || b.ListItem != nil {
		// Lists share the empty sequence / single-item overlap too often
		// to decide soundly without deeper analysis; never claim disjoint.
		return false
	}
	// Enumerations give exact answers.
	if len(a.Enumeration) > 0 {
		for _, v := range a.Enumeration {
			if a.AcceptsValue(v) && b.AcceptsValue(v) {
				return false
			}
		}
		return true
	}
	if len(b.Enumeration) > 0 {
		return SimpleDisjoint(b, a)
	}
	// Disjoint numeric ranges (both numeric bases).
	if numericBase(a.Base) && numericBase(b.Base) {
		alo, ahi, aloI, ahiI, _ := a.numericRange()
		blo, bhi, bloI, bhiI, _ := b.numericRange()
		if ahi < blo || (ahi == blo && !(ahiI && bloI)) {
			// Integer granularity: (x, x+1) ranges may still be empty for
			// integer bases, but conservative is fine.
			return true
		}
		if bhi < alo || (bhi == alo && !(bhiI && aloI)) {
			return true
		}
		return false
	}
	// Lexically disjoint bases.
	if lexicallyDisjoint(a.Base, b.Base) {
		return true
	}
	// Incompatible length windows for string-ish types.
	if !numericBase(a.Base) && !numericBase(b.Base) {
		aMin, aMax := lengthWindow(a)
		bMin, bMax := lengthWindow(b)
		if aMax >= 0 && aMax < bMin {
			return true
		}
		if bMax >= 0 && bMax < aMin {
			return true
		}
	}
	return false
}

func lengthWindow(st *SimpleType) (min, max int) {
	min, max = 0, -1
	if st.MinLength >= 0 {
		min = st.MinLength
	}
	if st.MaxLength >= 0 {
		max = st.MaxLength
	}
	return min, max
}

// lexicallyDisjoint reports whether the two bases share no lexical values
// at all. Kept deliberately conservative: string and anySimpleType overlap
// everything; boolean shares "1"/"0" with the numeric types; dates are
// disjoint from numerics and booleans.
func lexicallyDisjoint(a, b BaseKind) bool {
	if a == AnySimple || b == AnySimple || a == StringKind || b == StringKind {
		return false
	}
	if a == b {
		return false
	}
	pair := func(x, y BaseKind) bool { return a == x && b == y || a == y && b == x }
	switch {
	case pair(DateKind, BooleanKind),
		pair(DateKind, DecimalKind),
		pair(DateKind, IntegerKind),
		pair(DateKind, PositiveIntegerKind):
		return true
	}
	return false
}

func noFacets(st *SimpleType) bool {
	return st.MinInclusive == nil && st.MaxInclusive == nil &&
		st.MinExclusive == nil && st.MaxExclusive == nil &&
		st.MinLength < 0 && st.MaxLength < 0 && len(st.Enumeration) == 0 &&
		st.ListItem == nil
}
