package xsd

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/subsume"
	"repro/internal/wgen"
	"repro/internal/xmltree"
)

func TestParseFigure2(t *testing.T) {
	s, err := ParseString(wgen.Figure2XSD(false, 100), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"POType2", "USAddress", "Items", "Item"} {
		if s.TypeByName(name) == schema.NoType {
			t.Fatalf("type %s missing", name)
		}
	}
	if s.RootType("purchaseOrder") == schema.NoType || s.RootType("comment") == schema.NoType {
		t.Fatal("global elements should be roots")
	}
	doc := wgen.PODocument(wgen.PODocOptions{Items: 5, IncludeBillTo: true, Seed: 1})
	if err := s.Validate(doc); err != nil {
		t.Fatalf("generated doc should validate against parsed XSD: %v", err)
	}
	noBill := wgen.PODocument(wgen.PODocOptions{Items: 5, IncludeBillTo: false, Seed: 1})
	if err := s.Validate(noBill); err == nil {
		t.Fatal("billTo-less doc must fail (required billTo)")
	}
}

// The parsed XSD must define exactly the same languages as the programmatic
// paper schemas: every document generated from one validates under the
// other, in both directions, across all three schema variants.
func TestParsedSchemaMatchesProgrammatic(t *testing.T) {
	ps := wgen.NewPaperSchemas()
	variants := []struct {
		name string
		xsd  string
		prog *schema.Schema
	}{
		{"fig1a", wgen.Figure2XSD(true, 100), ps.Source1},
		{"fig2", wgen.Figure2XSD(false, 100), ps.Target},
		{"exp2src", wgen.Figure2XSD(false, 200), ps.Source2},
	}
	rng := rand.New(rand.NewSource(7))
	for _, v := range variants {
		parsed, err := ParseString(v.xsd, Options{Alpha: ps.Alpha})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		// Direction 1: docs from the programmatic schema validate under
		// the parsed schema and vice versa.
		gp := wgen.NewGenerator(v.prog, rng)
		gx := wgen.NewGenerator(parsed, rng)
		for i := 0; i < 40; i++ {
			if doc, ok := gp.Document(); ok {
				if err := parsed.Validate(doc); err != nil {
					t.Fatalf("%s: programmatic doc rejected by parsed schema: %v\n%s", v.name, err, doc)
				}
			}
			if doc, ok := gx.Document(); ok {
				if err := v.prog.Validate(doc); err != nil {
					t.Fatalf("%s: parsed-schema doc rejected by programmatic schema: %v\n%s", v.name, err, doc)
				}
			}
		}
		// Stronger: full mutual subsumption of the root types.
		rel := subsume.MustCompute(parsed, v.prog)
		relBack := subsume.MustCompute(v.prog, parsed)
		pa := parsed.RootType("purchaseOrder")
		pb := v.prog.RootType("purchaseOrder")
		if !rel.Subsumed(pa, pb) || !relBack.Subsumed(pb, pa) {
			t.Fatalf("%s: parsed and programmatic purchaseOrder types are not equivalent", v.name)
		}
	}
}

func TestParseInlineAndAnonymousTypes(t *testing.T) {
	src := `<schema>
	  <element name="root">
	    <complexType>
	      <sequence>
	        <element name="a" type="string"/>
	        <element name="b">
	          <simpleType>
	            <restriction base="integer">
	              <minInclusive value="0"/>
	              <maxInclusive value="10"/>
	            </restriction>
	          </simpleType>
	        </element>
	      </sequence>
	    </complexType>
	  </element>
	</schema>`
	s, err := ParseString(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok := xmltree.MustParseString(`<root><a>x</a><b>7</b></root>`)
	if err := s.Validate(ok); err != nil {
		t.Fatalf("valid doc rejected: %v", err)
	}
	bad := xmltree.MustParseString(`<root><a>x</a><b>11</b></root>`)
	if err := s.Validate(bad); err == nil {
		t.Fatal("b=11 violates maxInclusive=10")
	}
}

func TestParseChoiceAndNestedGroups(t *testing.T) {
	src := `<schema>
	  <element name="msg">
	    <complexType>
	      <sequence>
	        <element name="header" type="string"/>
	        <choice minOccurs="0" maxOccurs="unbounded">
	          <element name="text" type="string"/>
	          <sequence>
	            <element name="code" type="integer"/>
	            <element name="detail" type="string"/>
	          </sequence>
	        </choice>
	      </sequence>
	    </complexType>
	  </element>
	</schema>`
	s, err := ParseString(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{
		`<msg><header>h</header></msg>`,
		`<msg><header>h</header><text>t</text></msg>`,
		`<msg><header>h</header><code>1</code><detail>d</detail><text>t</text></msg>`,
	} {
		if err := s.Validate(xmltree.MustParseString(doc)); err != nil {
			t.Fatalf("%s should validate: %v", doc, err)
		}
	}
	for _, doc := range []string{
		`<msg/>`,
		`<msg><header>h</header><code>1</code></msg>`, // detail required after code
		`<msg><text>t</text></msg>`,                   // header required
	} {
		if err := s.Validate(xmltree.MustParseString(doc)); err == nil {
			t.Fatalf("%s should fail", doc)
		}
	}
}

func TestParseAllGroup(t *testing.T) {
	src := `<schema>
	  <element name="cfg">
	    <complexType>
	      <all>
	        <element name="host" type="string"/>
	        <element name="port" type="integer"/>
	        <element name="debug" type="boolean" minOccurs="0"/>
	      </all>
	    </complexType>
	  </element>
	</schema>`
	s, err := ParseString(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{
		`<cfg><host>h</host><port>80</port></cfg>`,
		`<cfg><port>80</port><host>h</host></cfg>`,
		`<cfg><debug>true</debug><port>80</port><host>h</host></cfg>`,
		`<cfg><host>h</host><debug>false</debug><port>80</port></cfg>`,
	} {
		if err := s.Validate(xmltree.MustParseString(doc)); err != nil {
			t.Fatalf("%s should validate: %v", doc, err)
		}
	}
	for _, doc := range []string{
		`<cfg><host>h</host></cfg>`,                                // port required
		`<cfg><host>h</host><port>80</port><host>h2</host></cfg>`,  // host twice
		`<cfg><host>h</host><port>80</port><extra>x</extra></cfg>`, // unknown
	} {
		if err := s.Validate(xmltree.MustParseString(doc)); err == nil {
			t.Fatalf("%s should fail", doc)
		}
	}
}

func TestParseElementRef(t *testing.T) {
	src := `<schema>
	  <element name="item" type="string"/>
	  <element name="list">
	    <complexType>
	      <sequence>
	        <element ref="item" minOccurs="0" maxOccurs="unbounded"/>
	      </sequence>
	    </complexType>
	  </element>
	</schema>`
	s, err := ParseString(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(xmltree.MustParseString(`<list><item>a</item><item>b</item></list>`)); err != nil {
		t.Fatal(err)
	}
}

func TestParseRecursiveType(t *testing.T) {
	src := `<schema>
	  <element name="tree" type="TreeType"/>
	  <complexType name="TreeType">
	    <sequence>
	      <element name="value" type="integer"/>
	      <element name="tree" type="TreeType" minOccurs="0" maxOccurs="2"/>
	    </sequence>
	  </complexType>
	</schema>`
	s, err := ParseString(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc := xmltree.MustParseString(
		`<tree><value>1</value><tree><value>2</value></tree></tree>`)
	if err := s.Validate(doc); err != nil {
		t.Fatalf("recursive doc should validate: %v", err)
	}
}

func TestParseNamedSimpleTypeChain(t *testing.T) {
	src := `<schema>
	  <simpleType name="Small"><restriction base="Positive"><maxInclusive value="10"/></restriction></simpleType>
	  <simpleType name="Positive"><restriction base="integer"><minExclusive value="0"/></restriction></simpleType>
	  <element name="n" type="Small"/>
	</schema>`
	s, err := ParseString(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(xmltree.MustParseString(`<n>5</n>`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(xmltree.MustParseString(`<n>0</n>`)); err == nil {
		t.Fatal("0 violates the inherited minExclusive facet")
	}
	if err := s.Validate(xmltree.MustParseString(`<n>11</n>`)); err == nil {
		t.Fatal("11 violates maxInclusive")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`<notschema/>`, "root element"},
		{`<schema><element type="string"/></schema>`, "without a name"},
		{`<schema><element name="a" type="Nope"/></schema>`, "unknown type"},
		{`<schema><element name="a" type="string"/><element name="a" type="string"/></schema>`, "twice"},
		{`<schema><complexType/></schema>`, "without a name"},
		{`<schema><element name="a"><complexType mixed="true"><sequence/></complexType></element></schema>`, "mixed"},
		{`<schema><element name="a"><complexType><complexContent/></complexType></element></schema>`, "empty complexContent"},
		{`<schema><element name="a"><complexType><simpleContent/></complexType></element></schema>`, "empty simpleContent"},
		{`<schema><include schemaLocation="x.xsd"/></schema>`, "not supported"},
		{`<schema><element name="a"><complexType><sequence><element name="b" type="string" minOccurs="2" maxOccurs="1"/></sequence></complexType></element></schema>`, "maxOccurs"},
		{`<schema><element name="a"><simpleType><restriction base="string"><pattern value="x+"/></restriction></simpleType></element></schema>`, "not supported"},
		{`<schema><element name="a"><simpleType><union/></simpleType></element></schema>`, "union"},
		{`<schema><simpleType name="L"><restriction base="L"/></simpleType><element name="a" type="L"/></schema>`, "itself"},
		{`<schema><element name="a"><complexType><sequence><any/></sequence></complexType></element></schema>`, "not supported"},
		{`<schema><element name="a"><complexType><sequence><element ref="missing"/></sequence></complexType></element></schema>`, "no global declaration"},
		{`<schema><element name="a"><complexType><all><sequence/></all></complexType></element></schema>`, "only elements"},
		{`<schema><element name="a"><complexType><all><element name="b" type="string" maxOccurs="2"/></all></complexType></element></schema>`, "occurs in {0,1}"},
		// Same label, two different types in one content model.
		{`<schema><element name="a"><complexType><sequence>
			<element name="b" type="string"/>
			<element name="b" type="integer"/>
		  </sequence></complexType></element></schema>`, "share a type"},
	}
	for _, c := range cases {
		_, err := ParseString(c.src, Options{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseString(%.60q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestParseElementWithoutTypeIsAnySimple(t *testing.T) {
	s, err := ParseString(`<schema><element name="a"/></schema>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(xmltree.MustParseString(`<a>anything</a>`)); err != nil {
		t.Fatalf("anyType element should accept text: %v", err)
	}
}

func TestSharedAlphabetCastIntegration(t *testing.T) {
	alpha := fa.NewAlphabet()
	src, err := ParseString(wgen.Figure2XSD(true, 100), Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := ParseString(wgen.Figure2XSD(false, 100), Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	rel := subsume.MustCompute(src, dst)
	if rel.Subsumed(src.RootType("purchaseOrder"), dst.RootType("purchaseOrder")) {
		t.Fatal("optional-billTo root must not be subsumed")
	}
	if !rel.Subsumed(src.TypeByName("USAddress"), dst.TypeByName("USAddress")) {
		t.Fatal("USAddress should be subsumed by its twin")
	}
	// Sanity: both parsed schemas fully validate a generated doc.
	doc := wgen.PODocument(wgen.PODocOptions{Items: 3, IncludeBillTo: true, Seed: 9})
	for _, s := range []*schema.Schema{src, dst} {
		if _, err := baseline.New(s).Validate(doc); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScaledXSDParsesAndRelates(t *testing.T) {
	const sections = 6
	alpha := fa.NewAlphabet()
	src, err := ParseString(wgen.ScaledXSD(sections, true, 100), Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := ParseString(wgen.ScaledXSD(sections, false, 100), Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sections; i++ {
		for _, name := range []string{"Section", "Entry"} {
			if src.TypeByName(fmt.Sprintf("%s%d", name, i)) == schema.NoType {
				t.Fatalf("source missing %s%d", name, i)
			}
		}
	}
	rel := subsume.MustCompute(src, dst)
	if rel.Subsumed(src.RootType("catalog"), dst.RootType("catalog")) {
		t.Fatal("optional-note catalog must not be subsumed by required-note")
	}
	// The reverse tightening direction: every required-note section is
	// subsumed by its optional-note twin, so the swapped pair is a no-op
	// cast at the section level.
	relBack := subsume.MustCompute(dst, src)
	for i := 0; i < sections; i++ {
		name := fmt.Sprintf("Section%d", i)
		if !relBack.Subsumed(dst.TypeByName(name), src.TypeByName(name)) {
			t.Fatalf("%s (required note) should be subsumed by its optional twin", name)
		}
	}
}
