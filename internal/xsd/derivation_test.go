package xsd

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/subsume"
	"repro/internal/xmltree"
)

func TestComplexContentExtension(t *testing.T) {
	src := `<schema>
	  <complexType name="Base">
	    <sequence>
	      <element name="id" type="string"/>
	    </sequence>
	  </complexType>
	  <complexType name="Derived">
	    <complexContent>
	      <extension base="Base">
	        <sequence>
	          <element name="extra" type="integer"/>
	        </sequence>
	      </extension>
	    </complexContent>
	  </complexType>
	  <element name="base" type="Base"/>
	  <element name="derived" type="Derived"/>
	</schema>`
	s, err := ParseString(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(xmltree.MustParseString(`<derived><id>x</id><extra>1</extra></derived>`)); err != nil {
		t.Fatalf("extended content should validate: %v", err)
	}
	if err := s.Validate(xmltree.MustParseString(`<derived><id>x</id></derived>`)); err == nil {
		t.Fatal("extension content is mandatory")
	}
	if err := s.Validate(xmltree.MustParseString(`<derived><extra>1</extra><id>x</id></derived>`)); err == nil {
		t.Fatal("base content must come first")
	}
	if err := s.Validate(xmltree.MustParseString(`<base><id>x</id></base>`)); err != nil {
		t.Fatalf("base still validates alone: %v", err)
	}
}

func TestComplexContentRestriction(t *testing.T) {
	src := `<schema>
	  <complexType name="Base">
	    <sequence>
	      <element name="a" type="string"/>
	      <element name="b" type="string" minOccurs="0"/>
	    </sequence>
	  </complexType>
	  <complexType name="Narrow">
	    <complexContent>
	      <restriction base="Base">
	        <sequence>
	          <element name="a" type="string"/>
	        </sequence>
	      </restriction>
	    </complexContent>
	  </complexType>
	  <element name="n" type="Narrow"/>
	  <element name="base" type="Base"/>
	</schema>`
	alpha := fa.NewAlphabet()
	s, err := ParseString(src, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(xmltree.MustParseString(`<n><a>x</a></n>`)); err != nil {
		t.Fatalf("restricted content should validate: %v", err)
	}
	if err := s.Validate(xmltree.MustParseString(`<n><a>x</a><b>y</b></n>`)); err == nil {
		t.Fatal("b was restricted away")
	}
	// The restriction really is a subtype: Narrow ≤ Base per R_sub.
	rel := subsume.MustCompute(s, s)
	if !rel.Subsumed(s.TypeByName("Narrow"), s.TypeByName("Base")) {
		t.Fatal("Narrow should be subsumed by Base")
	}
}

func TestComplexContentErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`<schema><complexType name="D"><complexContent><extension/></complexContent></complexType><element name="d" type="D"/></schema>`,
			"without base"},
		{`<schema><complexType name="D"><complexContent><extension base="Missing"/></complexContent></complexType><element name="d" type="D"/></schema>`,
			"unknown type"},
		{`<schema><complexType name="D"><complexContent><extension base="string"/></complexContent></complexType><element name="d" type="D"/></schema>`,
			"is simple"},
		// Recursive extension cannot resolve the base's content.
		{`<schema><complexType name="D"><complexContent><extension base="D"/></complexContent></complexType><element name="d" type="D"/></schema>`,
			"under construction"},
	}
	for _, c := range cases {
		if _, err := ParseString(c.src, Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("error = %v, want containing %q", err, c.want)
		}
	}
}

func TestNamedGroups(t *testing.T) {
	src := `<schema>
	  <group name="AddressFields">
	    <sequence>
	      <element name="street" type="string"/>
	      <element name="city" type="string"/>
	    </sequence>
	  </group>
	  <element name="contact">
	    <complexType>
	      <sequence>
	        <element name="name" type="string"/>
	        <group ref="AddressFields"/>
	        <group ref="AddressFields" minOccurs="0"/>
	      </sequence>
	    </complexType>
	  </element>
	</schema>`
	s, err := ParseString(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	one := `<contact><name>n</name><street>s</street><city>c</city></contact>`
	if err := s.Validate(xmltree.MustParseString(one)); err != nil {
		t.Fatalf("single group use: %v", err)
	}
	two := `<contact><name>n</name><street>s</street><city>c</city><street>s2</street><city>c2</city></contact>`
	if err := s.Validate(xmltree.MustParseString(two)); err != nil {
		t.Fatalf("optional second group use: %v", err)
	}
	if err := s.Validate(xmltree.MustParseString(`<contact><name>n</name></contact>`)); err == nil {
		t.Fatal("first group is mandatory")
	}
}

func TestNamedGroupErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`<schema><element name="a"><complexType><sequence><group ref="G"/></sequence></complexType></element></schema>`,
			"no definition"},
		{`<schema><group name="G"><sequence><group ref="G"/></sequence></group>
		  <element name="a"><complexType><sequence><group ref="G"/></sequence></complexType></element></schema>`,
			"itself"},
		{`<schema><group name="G"><sequence/></group><group name="G"><sequence/></group><element name="a" type="string"/></schema>`,
			"twice"},
	}
	for _, c := range cases {
		if _, err := ParseString(c.src, Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("error = %v, want containing %q", err, c.want)
		}
	}
}

func TestListSimpleType(t *testing.T) {
	src := `<schema>
	  <simpleType name="Scores">
	    <list itemType="integer"/>
	  </simpleType>
	  <element name="scores" type="Scores"/>
	  <element name="tags">
	    <simpleType>
	      <list>
	        <simpleType><restriction base="string"><maxLength value="4"/></restriction></simpleType>
	      </list>
	    </simpleType>
	  </element>
	</schema>`
	s, err := ParseString(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, good := range []string{
		`<scores>1 2 3</scores>`,
		`<scores>42</scores>`,
		`<scores/>`,
		`<tags>ab cd efgh</tags>`,
	} {
		if err := s.Validate(xmltree.MustParseString(good)); err != nil {
			t.Errorf("%s should validate: %v", good, err)
		}
	}
	for _, bad := range []string{
		`<scores>1 two 3</scores>`,
		`<tags>toolong</tags>`,
	} {
		if err := s.Validate(xmltree.MustParseString(bad)); err == nil {
			t.Errorf("%s should fail", bad)
		}
	}
	if _, err := ParseString(`<schema><simpleType name="L"><list/></simpleType><element name="a" type="L"/></schema>`, Options{}); err == nil {
		t.Error("list without item type must fail")
	}
}

func TestListSubsumption(t *testing.T) {
	small := schema.NewListType(schema.NewSimpleType(schema.IntegerKind).WithMaxInclusive(10))
	big := schema.NewListType(schema.NewSimpleType(schema.IntegerKind))
	if !schema.SimpleSubsumed(small, big) {
		t.Fatal("list of small ints ⊆ list of ints")
	}
	if schema.SimpleSubsumed(big, small) {
		t.Fatal("list of ints ⊄ list of small ints")
	}
	scalar := schema.NewSimpleType(schema.IntegerKind)
	if schema.SimpleSubsumed(big, scalar) || schema.SimpleSubsumed(scalar, big) {
		t.Fatal("lists and scalars are incomparable (conservatively)")
	}
	if schema.SimpleDisjoint(big, scalar) {
		t.Fatal("lists never claim disjointness")
	}
}

func TestSimpleContent(t *testing.T) {
	src := `<schema>
	  <complexType name="Price">
	    <simpleContent>
	      <extension base="decimal">
	        <attribute name="currency" type="string"/>
	      </extension>
	    </simpleContent>
	  </complexType>
	  <complexType name="SmallPrice">
	    <simpleContent>
	      <restriction base="Price">
	        <maxInclusive value="10"/>
	        <attribute name="currency" type="string"/>
	      </restriction>
	    </simpleContent>
	  </complexType>
	  <element name="price" type="Price"/>
	  <element name="small" type="SmallPrice"/>
	</schema>`
	s, err := ParseString(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(xmltree.MustParseString(`<price currency="USD">12.50</price>`)); err != nil {
		t.Fatalf("simpleContent extension should carry the base value space: %v", err)
	}
	if err := s.Validate(xmltree.MustParseString(`<price>not-a-number</price>`)); err == nil {
		t.Fatal("non-decimal content must fail")
	}
	if err := s.Validate(xmltree.MustParseString(`<small>9.5</small>`)); err != nil {
		t.Fatalf("restricted simpleContent should accept in-range values: %v", err)
	}
	if err := s.Validate(xmltree.MustParseString(`<small>11</small>`)); err == nil {
		t.Fatal("restriction facet must apply")
	}
	// Element content under simpleContent types is invalid.
	if err := s.Validate(xmltree.MustParseString(`<price><x/></price>`)); err == nil {
		t.Fatal("element content under simpleContent must fail")
	}
}

func TestSimpleContentErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`<schema><complexType name="P"><simpleContent/></complexType><element name="p" type="P"/></schema>`,
			"empty simpleContent"},
		{`<schema><complexType name="P"><simpleContent><extension/></simpleContent></complexType><element name="p" type="P"/></schema>`,
			"without base"},
		{`<schema>
		   <complexType name="C"><sequence><element name="x" type="string"/></sequence></complexType>
		   <complexType name="P"><simpleContent><extension base="C"/></simpleContent></complexType>
		   <element name="p" type="P"/></schema>`,
			"element content"},
		{`<schema><complexType name="P"><simpleContent><extension base="string"><sequence/></extension></simpleContent></complexType><element name="p" type="P"/></schema>`,
			"unexpected"},
	}
	for _, c := range cases {
		if _, err := ParseString(c.src, Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("error = %v, want containing %q", err, c.want)
		}
	}
}

func TestFacetErrorPaths(t *testing.T) {
	cases := []struct{ src, want string }{
		{`<schema><simpleType name="S"><restriction base="integer"><maxInclusive/></restriction></simpleType><element name="s" type="S"/></schema>`,
			"without value"},
		{`<schema><simpleType name="S"><restriction base="integer"><maxInclusive value="x"/></restriction></simpleType><element name="s" type="S"/></schema>`,
			"bad maxInclusive"},
		{`<schema><simpleType name="S"><restriction base="string"><minLength value="-1"/></restriction></simpleType><element name="s" type="S"/></schema>`,
			"bad minLength"},
		{`<schema><simpleType name="S"><restriction base="string"><bogusFacet value="1"/></restriction></simpleType><element name="s" type="S"/></schema>`,
			"unknown facet"},
		{`<schema><simpleType name="S"><restriction base="string"><totalDigits value="3"/></restriction></simpleType><element name="s" type="S"/></schema>`,
			"not supported"},
	}
	for _, c := range cases {
		if _, err := ParseString(c.src, Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("error = %v, want containing %q", err, c.want)
		}
	}
}

// TestIdentityConstraintsRefused: no validator checks xs:unique, xs:key or
// xs:keyref, so the loader refuses each of them wherever an element
// declaration carries it, naming the constraint.
func TestIdentityConstraintsRefused(t *testing.T) {
	places := map[string]string{
		"global": `<schema><element name="cat"><complexType><sequence>
			<element name="sku" type="string" maxOccurs="unbounded"/>
		  </sequence></complexType>%s</element></schema>`,
		"local in named type": `<schema><complexType name="Cat"><sequence>
			<element name="items"><complexType><sequence>
			  <element name="sku" type="string" maxOccurs="unbounded"/>
			</sequence></complexType>%s</element>
		  </sequence></complexType><element name="cat" type="Cat"/></schema>`,
		"in named group": `<schema><group name="G"><sequence>
			<element name="items"><complexType><sequence>
			  <element name="sku" type="string" maxOccurs="unbounded"/>
			</sequence></complexType>%s</element>
		  </sequence></group><element name="cat"><complexType><group ref="G"/></complexType></element></schema>`,
	}
	for _, kind := range []string{"unique", "key", "keyref"} {
		name := "sku_" + kind
		decl := fmt.Sprintf(`<%[1]s name=%[2]q refer="other"><selector xpath="sku"/><field xpath="."/></%[1]s>`, kind, name)
		for place, tmpl := range places {
			_, err := ParseString(fmt.Sprintf(tmpl, decl), Options{})
			if !errors.Is(err, ErrIdentityConstraint) || !strings.Contains(err.Error(), name) {
				t.Errorf("%s %s: error = %v, want ErrIdentityConstraint naming %q", place, kind, err, name)
			}
		}
	}
}
