package schema

import (
	"strings"
	"testing"
)

func TestAcceptsValueBases(t *testing.T) {
	cases := []struct {
		st    *SimpleType
		value string
		want  bool
	}{
		{nil, "anything at all", true},
		{NewSimpleType(AnySimple), "x", true},
		{NewSimpleType(StringKind), "hello", true},
		{NewSimpleType(BooleanKind), "true", true},
		{NewSimpleType(BooleanKind), "false", true},
		{NewSimpleType(BooleanKind), "1", true},
		{NewSimpleType(BooleanKind), "0", true},
		{NewSimpleType(BooleanKind), "yes", false},
		{NewSimpleType(DecimalKind), "3.14", true},
		{NewSimpleType(DecimalKind), "-2", true},
		{NewSimpleType(DecimalKind), "abc", false},
		{NewSimpleType(IntegerKind), "42", true},
		{NewSimpleType(IntegerKind), "-7", true},
		{NewSimpleType(IntegerKind), "3.5", false},
		{NewSimpleType(PositiveIntegerKind), "1", true},
		{NewSimpleType(PositiveIntegerKind), "0", false},
		{NewSimpleType(PositiveIntegerKind), "-3", false},
		{NewSimpleType(DateKind), "2004-03-14", true},
		{NewSimpleType(DateKind), "2004-13-40", false},
		{NewSimpleType(DateKind), "yesterday", false},
		// Whitespace collapse for non-string kinds.
		{NewSimpleType(IntegerKind), "  42  ", true},
		// Lists split as strings.Fields does; length facets count items.
		{NewListType(NewSimpleType(IntegerKind)), "", true},
		{NewListType(NewSimpleType(IntegerKind)), "1 x 3", false},
		{NewListType(NewSimpleType(IntegerKind)).WithLength(2, 3), " 1\t2\n3 ", true},
		{NewListType(NewSimpleType(IntegerKind)).WithLength(2, 3), "1 2", true},
		{NewListType(NewSimpleType(IntegerKind)).WithLength(2, 3), "1", false},
		{NewListType(NewSimpleType(IntegerKind)).WithLength(2, 3), "1 2 3 4", false},
	}
	for _, c := range cases {
		if got := c.st.AcceptsValue(c.value); got != c.want {
			t.Errorf("%s accepts %q = %v, want %v", c.st, c.value, got, c.want)
		}
	}
}

func TestAcceptsValueFacets(t *testing.T) {
	qty := NewSimpleType(PositiveIntegerKind).WithMaxExclusive(100)
	if !qty.AcceptsValue("99") || qty.AcceptsValue("100") || qty.AcceptsValue("150") {
		t.Fatal("maxExclusive=100 misbehaves")
	}
	rng := NewSimpleType(IntegerKind).WithMinInclusive(10).WithMaxInclusive(20)
	for _, c := range []struct {
		v    string
		want bool
	}{{"9", false}, {"10", true}, {"20", true}, {"21", false}} {
		if rng.AcceptsValue(c.v) != c.want {
			t.Fatalf("range accepts %s != %v", c.v, c.want)
		}
	}
	exc := NewSimpleType(IntegerKind).WithMinExclusive(0)
	if exc.AcceptsValue("0") || !exc.AcceptsValue("1") {
		t.Fatal("minExclusive misbehaves")
	}
	lens := NewSimpleType(StringKind).WithLength(2, 4)
	for _, c := range []struct {
		v    string
		want bool
	}{{"a", false}, {"ab", true}, {"abcd", true}, {"abcde", false}} {
		if lens.AcceptsValue(c.v) != c.want {
			t.Fatalf("length accepts %q != %v", c.v, c.want)
		}
	}
	enum := NewSimpleType(StringKind).WithEnumeration("US", "CA")
	if !enum.AcceptsValue("US") || enum.AcceptsValue("MX") {
		t.Fatal("enumeration misbehaves")
	}
}

func TestSimpleSubsumed(t *testing.T) {
	cases := []struct {
		name string
		a, b *SimpleType
		want bool
	}{
		{"anything under nil", NewSimpleType(IntegerKind), nil, true},
		{"nil under constrained", nil, NewSimpleType(IntegerKind), false},
		{"same type", NewSimpleType(IntegerKind), NewSimpleType(IntegerKind), true},
		{"posInt under integer", NewSimpleType(PositiveIntegerKind), NewSimpleType(IntegerKind), true},
		{"integer under decimal", NewSimpleType(IntegerKind), NewSimpleType(DecimalKind), true},
		{"integer NOT under posInt", NewSimpleType(IntegerKind), NewSimpleType(PositiveIntegerKind), false},
		{"integer under string", NewSimpleType(IntegerKind), NewSimpleType(StringKind), true},
		{"string NOT under integer", NewSimpleType(StringKind), NewSimpleType(IntegerKind), false},
		{"date under string", NewSimpleType(DateKind), NewSimpleType(StringKind), true},
		// Paper Experiment 2: quantity < 100 is subsumed by quantity < 200
		// and not vice versa.
		{"max100 under max200",
			NewSimpleType(PositiveIntegerKind).WithMaxExclusive(100),
			NewSimpleType(PositiveIntegerKind).WithMaxExclusive(200), true},
		{"max200 NOT under max100",
			NewSimpleType(PositiveIntegerKind).WithMaxExclusive(200),
			NewSimpleType(PositiveIntegerKind).WithMaxExclusive(100), false},
		{"equal exclusive bounds",
			NewSimpleType(PositiveIntegerKind).WithMaxExclusive(100),
			NewSimpleType(PositiveIntegerKind).WithMaxExclusive(100), true},
		{"inclusive NOT under equal exclusive",
			NewSimpleType(IntegerKind).WithMaxInclusive(100),
			NewSimpleType(IntegerKind).WithMaxExclusive(100), false},
		{"exclusive under equal inclusive",
			NewSimpleType(IntegerKind).WithMaxExclusive(100),
			NewSimpleType(IntegerKind).WithMaxInclusive(100), true},
		{"enum subset",
			NewSimpleType(StringKind).WithEnumeration("a", "b"),
			NewSimpleType(StringKind).WithEnumeration("a", "b", "c"), true},
		{"enum not subset",
			NewSimpleType(StringKind).WithEnumeration("a", "z"),
			NewSimpleType(StringKind).WithEnumeration("a", "b", "c"), false},
		{"enum values inside numeric range",
			NewSimpleType(IntegerKind).WithEnumeration("5", "6"),
			NewSimpleType(IntegerKind).WithMaxInclusive(10), true},
		{"open type NOT under enum",
			NewSimpleType(StringKind),
			NewSimpleType(StringKind).WithEnumeration("a"), false},
		{"length nesting",
			NewSimpleType(StringKind).WithLength(2, 4),
			NewSimpleType(StringKind).WithLength(1, 5), true},
		{"length not nested",
			NewSimpleType(StringKind).WithLength(1, 5),
			NewSimpleType(StringKind).WithLength(2, 4), false},
	}
	for _, c := range cases {
		if got := SimpleSubsumed(c.a, c.b); got != c.want {
			t.Errorf("%s: SimpleSubsumed = %v, want %v", c.name, got, c.want)
		}
	}
}

// Subsumption claims must be sound: whenever SimpleSubsumed says true,
// sample values accepted by a must be accepted by b.
func TestSimpleSubsumedSoundness(t *testing.T) {
	types := []*SimpleType{
		nil,
		NewSimpleType(AnySimple),
		NewSimpleType(StringKind),
		NewSimpleType(BooleanKind),
		NewSimpleType(DecimalKind),
		NewSimpleType(IntegerKind),
		NewSimpleType(PositiveIntegerKind),
		NewSimpleType(DateKind),
		NewSimpleType(PositiveIntegerKind).WithMaxExclusive(100),
		NewSimpleType(PositiveIntegerKind).WithMaxExclusive(200),
		NewSimpleType(IntegerKind).WithMinInclusive(-5).WithMaxInclusive(5),
		NewSimpleType(StringKind).WithEnumeration("a", "bb", "ccc"),
		NewSimpleType(StringKind).WithLength(1, 3),
		NewSimpleType(DecimalKind).WithMinExclusive(0),
	}
	samples := []string{
		"", "a", "bb", "ccc", "dddd", "true", "false", "1", "0", "-1",
		"5", "-5", "42", "99", "100", "150", "199", "200", "3.14", "-0.5",
		"2004-03-14", "not-a-value", "  7 ",
	}
	for _, a := range types {
		for _, b := range types {
			if !SimpleSubsumed(a, b) {
				continue
			}
			for _, v := range samples {
				if a.AcceptsValue(v) && !b.AcceptsValue(v) {
					t.Fatalf("unsound: %s ⊆ %s claimed but value %q separates them",
						a, b, v)
				}
			}
		}
	}
}

func TestSimpleDisjoint(t *testing.T) {
	cases := []struct {
		name string
		a, b *SimpleType
		want bool
	}{
		{"nil never disjoint", nil, NewSimpleType(IntegerKind), false},
		{"same base", NewSimpleType(IntegerKind), NewSimpleType(IntegerKind), false},
		{"disjoint numeric ranges",
			NewSimpleType(IntegerKind).WithMaxInclusive(10),
			NewSimpleType(IntegerKind).WithMinInclusive(20), true},
		{"touching inclusive ranges overlap",
			NewSimpleType(IntegerKind).WithMaxInclusive(10),
			NewSimpleType(IntegerKind).WithMinInclusive(10), false},
		{"touching exclusive ranges disjoint",
			NewSimpleType(IntegerKind).WithMaxExclusive(10),
			NewSimpleType(IntegerKind).WithMinInclusive(10), true},
		{"date vs integer", NewSimpleType(DateKind), NewSimpleType(IntegerKind), true},
		{"date vs boolean", NewSimpleType(DateKind), NewSimpleType(BooleanKind), true},
		{"boolean vs integer share 1/0", NewSimpleType(BooleanKind), NewSimpleType(IntegerKind), false},
		{"string overlaps everything", NewSimpleType(StringKind), NewSimpleType(DateKind), false},
		{"disjoint enums",
			NewSimpleType(StringKind).WithEnumeration("a", "b"),
			NewSimpleType(StringKind).WithEnumeration("c"), true},
		{"overlapping enums",
			NewSimpleType(StringKind).WithEnumeration("a", "b"),
			NewSimpleType(StringKind).WithEnumeration("b", "c"), false},
		{"enum vs range with no overlap",
			NewSimpleType(IntegerKind).WithEnumeration("1", "2"),
			NewSimpleType(IntegerKind).WithMinInclusive(10), true},
		{"length windows disjoint",
			NewSimpleType(StringKind).WithLength(0, 2),
			NewSimpleType(StringKind).WithLength(5, 9), true},
	}
	for _, c := range cases {
		if got := SimpleDisjoint(c.a, c.b); got != c.want {
			t.Errorf("%s: SimpleDisjoint = %v, want %v", c.name, got, c.want)
		}
		if got := SimpleDisjoint(c.b, c.a); got != c.want {
			t.Errorf("%s (swapped): SimpleDisjoint = %v, want %v", c.name, got, c.want)
		}
	}
}

// Disjointness claims must be sound: whenever SimpleDisjoint says true, no
// sample value may be accepted by both.
func TestSimpleDisjointSoundness(t *testing.T) {
	types := []*SimpleType{
		nil,
		NewSimpleType(StringKind),
		NewSimpleType(BooleanKind),
		NewSimpleType(IntegerKind),
		NewSimpleType(PositiveIntegerKind).WithMaxExclusive(100),
		NewSimpleType(IntegerKind).WithMinInclusive(200),
		NewSimpleType(DateKind),
		NewSimpleType(StringKind).WithEnumeration("x", "y"),
		NewSimpleType(StringKind).WithLength(1, 2),
		NewSimpleType(StringKind).WithLength(6, -1),
	}
	samples := []string{
		"", "x", "y", "zz", "longer-string", "true", "1", "0", "50", "99",
		"100", "200", "250", "2004-03-14",
	}
	for _, a := range types {
		for _, b := range types {
			if !SimpleDisjoint(a, b) {
				continue
			}
			for _, v := range samples {
				if a.AcceptsValue(v) && b.AcceptsValue(v) {
					t.Fatalf("unsound: %s ⊘ %s claimed but both accept %q", a, b, v)
				}
			}
		}
	}
}

func TestBaseKindByName(t *testing.T) {
	cases := []struct {
		name string
		want BaseKind
		ok   bool
	}{
		{"string", StringKind, true},
		{"token", StringKind, true},
		{"boolean", BooleanKind, true},
		{"decimal", DecimalKind, true},
		{"double", DecimalKind, true},
		{"integer", IntegerKind, true},
		{"int", IntegerKind, true},
		{"positiveInteger", PositiveIntegerKind, true},
		{"date", DateKind, true},
		{"anySimpleType", AnySimple, true},
		{"gYearMonth", AnySimple, false},
	}
	for _, c := range cases {
		got, ok := BaseKindByName(c.name)
		if got != c.want || ok != c.ok {
			t.Errorf("BaseKindByName(%q) = %v,%v want %v,%v", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestSimpleTypeString(t *testing.T) {
	st := NewSimpleType(PositiveIntegerKind).WithMaxExclusive(100)
	if !strings.Contains(st.String(), "positiveInteger") ||
		!strings.Contains(st.String(), "maxExclusive=100") {
		t.Fatalf("String = %q", st.String())
	}
	var nilST *SimpleType
	if nilST.String() != "anySimpleType" {
		t.Fatalf("nil String = %q", nilST.String())
	}
}
