// Schema evolution: a catalogue of archived purchase orders, validated
// years ago against schema v1, must be ingested by a system that enforces
// schema v2 (billTo now required, quantities capped at 100). The schema
// cast validator triages the archive, and for each invalid document
// domain-rule edits plus with-modifications revalidation fix it without a
// from-scratch pass.
//
//	go run ./examples/schemaevolution
package main

import (
	"fmt"
	"log"
	"math/rand"

	revalidate "repro"
	"repro/internal/wgen"
)

func main() {
	u := revalidate.NewUniverse()
	v1, err := u.LoadXSDString(wgen.Figure2XSD(true, 1000)) // lax: optional billTo, quantity < 1000
	if err != nil {
		log.Fatal(err)
	}
	v2, err := u.LoadXSDString(wgen.Figure2XSD(false, 100)) // strict: required billTo, quantity < 100
	if err != nil {
		log.Fatal(err)
	}
	caster, err := revalidate.NewCaster(v1, v2)
	if err != nil {
		log.Fatal(err)
	}

	// An archive of v1 documents with a mix of shapes.
	rng := rand.New(rand.NewSource(17))
	type archived struct {
		id  string
		doc *revalidate.Document
	}
	var archive []archived
	for i := 0; i < 8; i++ {
		opts := wgen.PODocOptions{
			Items:         5 + rng.Intn(20),
			IncludeBillTo: rng.Intn(2) == 0,
			MaxQuantity:   40 + rng.Intn(300), // some quantities exceed 100
			Seed:          int64(i),
		}
		doc, err := revalidate.ParseDocumentString(string(wgen.POXMLBytes(wgen.PODocument(opts))))
		if err != nil {
			log.Fatal(err)
		}
		if err := v1.Validate(doc); err != nil {
			log.Fatalf("archive doc %d not v1-valid: %v", i, err)
		}
		archive = append(archive, archived{id: fmt.Sprintf("PO-%04d", 1000+i), doc: doc})
	}

	fmt.Println("triaging the archive against schema v2:")
	var repaired, ok, rejected int
	for _, a := range archive {
		err := caster.Validate(a.doc)
		if err == nil {
			fmt.Printf("  %s  ✓ already v2-valid\n", a.id)
			ok++
			continue
		}
		fmt.Printf("  %s  ✗ %v\n", a.id, err)
		// Business rules decide the fixes: copy shipTo into billTo and
		// clamp quantities.
		if repair(caster, a.doc) {
			fmt.Printf("  %s  ✓ repaired (domain rules) and revalidated incrementally\n", a.id)
			repaired++
		} else {
			rejected++
		}
	}
	fmt.Printf("\n%d ok, %d repaired, %d need manual attention\n", ok, repaired, rejected)
}

// repair applies the two mechanical fixes the v1→v2 migration allows —
// copying shipTo into a missing billTo and clamping oversized quantities —
// then revalidates incrementally (only the edited regions are re-examined).
func repair(caster *revalidate.Caster, doc *revalidate.Document) bool {
	es := doc.Edit()
	root := doc.Root()

	if _, hasBill := root.First("billTo"); !hasBill {
		shipTo, okShip := root.First("shipTo")
		if !okShip {
			return false
		}
		// Duplicate the shipping address as the billing address.
		var fields []revalidate.Elem
		for _, f := range shipTo.Children() {
			fields = append(fields, revalidate.Element(f.Label(), revalidate.Text(f.Value())))
		}
		if err := es.InsertAfter(shipTo, revalidate.Element("billTo", fields...)); err != nil {
			return false
		}
	}
	for _, qty := range root.All("quantity") {
		if len(qty.Value()) >= 3 { // quantities are 1..999 here: 3 digits ⇒ ≥ 100
			if err := es.SetValue(qty, "99"); err != nil {
				return false
			}
		}
	}
	return caster.ValidateModified(doc, es.Done()) == nil
}
