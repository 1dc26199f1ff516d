package revalidate_test

import (
	"errors"
	"fmt"

	revalidate "repro"
)

const exampleSourceXSD = `
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="po" type="POv1"/>
  <xsd:complexType name="POv1">
    <xsd:sequence>
      <xsd:element name="ship" type="xsd:string"/>
      <xsd:element name="bill" type="xsd:string" minOccurs="0"/>
      <xsd:element name="qty" type="Qty"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:simpleType name="Qty">
    <xsd:restriction base="xsd:positiveInteger"><xsd:maxExclusive value="200"/></xsd:restriction>
  </xsd:simpleType>
</xsd:schema>`

const exampleTargetXSD = `
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="po" type="POv2"/>
  <xsd:complexType name="POv2">
    <xsd:sequence>
      <xsd:element name="ship" type="xsd:string"/>
      <xsd:element name="bill" type="xsd:string"/>
      <xsd:element name="qty" type="Qty"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:simpleType name="Qty">
    <xsd:restriction base="xsd:positiveInteger"><xsd:maxExclusive value="100"/></xsd:restriction>
  </xsd:simpleType>
</xsd:schema>`

// The basic schema cast: decide validity under a new schema using knowledge
// of conformance to the old one.
func ExampleNewCaster() {
	u := revalidate.NewUniverse()
	src, _ := u.LoadXSDString(exampleSourceXSD)
	dst, _ := u.LoadXSDString(exampleTargetXSD)
	caster, _ := revalidate.NewCaster(src, dst)

	good, _ := revalidate.ParseDocumentString(
		`<po><ship>a</ship><bill>b</bill><qty>42</qty></po>`)
	fmt.Println("with bill:", caster.Validate(good) == nil)

	bad, _ := revalidate.ParseDocumentString(
		`<po><ship>a</ship><qty>42</qty></po>`)
	fmt.Println("without bill:", caster.Validate(bad) == nil)
	// Output:
	// with bill: true
	// without bill: false
}

// Incremental revalidation after edits: only the touched region is
// re-examined.
func ExampleCaster_ValidateModified() {
	u := revalidate.NewUniverse()
	src, _ := u.LoadXSDString(exampleSourceXSD)
	caster, _ := revalidate.NewCaster(src, src) // same-schema revalidation

	doc, _ := revalidate.ParseDocumentString(
		`<po><ship>a</ship><qty>42</qty></po>`)
	es := doc.Edit()
	qty, _ := doc.Root().First("qty")
	_ = es.SetValue(qty, "500") // violates maxExclusive=200
	err := caster.ValidateModified(doc, es.Done())
	fmt.Println("edit accepted:", err == nil)
	// Output:
	// edit accepted: false
}

// The string-level immediate decision automaton decides as early as
// possible — here after two of three symbols.
func ExampleNewStringCaster() {
	sc, _ := revalidate.NewStringCaster(
		"ship, bill?, items", // source content model
		"ship, bill, items")  // target content model
	res, _ := sc.Validate([]string{"ship", "bill", "items"})
	fmt.Printf("accepted=%v after %d of 3 symbols\n", res.Accepted, res.Scanned)
	// Output:
	// accepted=true after 2 of 3 symbols
}

// A schema declaring xs:unique, xs:key or xs:keyref is refused at load
// time: no validator checks identity constraints, so answering "valid"
// for a document that repeats a key would be wrong.
func ExampleErrIdentityConstraint() {
	u := revalidate.NewUniverse()
	_, err := u.LoadXSDString(keyedXSD)
	fmt.Println(errors.Is(err, revalidate.ErrIdentityConstraint))
	fmt.Println(err)
	// Output:
	// true
	// xsd: key "skuKey" on element "catalog": identity constraints are not supported
}
