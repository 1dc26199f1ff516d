package revalidate

import (
	"fmt"
	"strings"
	"testing"
)

// countedXSD is r → a{0,n} b?, the shape whose full c_immed product is
// quadratic in n: a few hundred bytes of schema text with a large
// maxOccurs.
func countedXSD(n int) string {
	return fmt.Sprintf(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="r" type="RType"/>
  <xsd:complexType name="RType">
    <xsd:sequence>
      <xsd:element name="a" type="xsd:string" minOccurs="0" maxOccurs="%d"/>
      <xsd:element name="b" type="xsd:string" minOccurs="0"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>`, n)
}

func countedPair(t *testing.T, n int) (src, dst *Schema) {
	t.Helper()
	u := NewUniverse()
	src, err := u.LoadXSDString(countedXSD(n))
	if err != nil {
		t.Fatal(err)
	}
	dst, err = u.LoadXSDString(countedXSD(n - 1))
	if err != nil {
		t.Fatal(err)
	}
	return src, dst
}

func countedDoc(as int, b bool) string {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < as; i++ {
		sb.WriteString("<a>x</a>")
	}
	if b {
		sb.WriteString("<b>y</b>")
	}
	sb.WriteString("</r>")
	return sb.String()
}

// A cast compiles c_immed over the pairs reachable from the start pair:
// for a{0,n} b? → a{0,n-1} b? that is the diagonal, O(n) states, where the
// full Q_a × Q_b product has about n².
func TestHostilePairCompilesLinearly(t *testing.T) {
	const n = 400
	src, dst := countedPair(t, n)
	c, err := NewCaster(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Report().IDAStates; got > 2*n {
		t.Fatalf("c_immed has %d states, want at most %d", got, 2*n)
	}
	for _, as := range []int{0, n - 1, n} {
		doc, err := ParseDocumentString(countedDoc(as, true))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.Validate(doc) == nil, dst.Validate(doc) == nil; got != want {
			t.Fatalf("%d a's: cast says %v, full validation %v", as, got, want)
		}
	}
}

// The §4.3 forward scan enters c_immed at (q_a, q_b) pairs off the
// diagonal, which only the full product holds. On the same shape at a
// small n (the full product is quadratic by design), every edit at the
// front of the content must reach the verdict full validation reaches.
func TestHostilePairModifiedForwardScan(t *testing.T) {
	const n = 20
	src, dst := countedPair(t, n)
	c, err := NewCaster(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	edits := map[string]func(es *EditSession, root Elem) error{
		"delete-first-a": func(es *EditSession, root Elem) error {
			first, _ := root.First("a")
			return es.Delete(first)
		},
		"insert-a-first": func(es *EditSession, root Elem) error {
			return es.InsertFirstChild(root, Element("a", Text("z")))
		},
		"insert-a-second": func(es *EditSession, root Elem) error {
			first, _ := root.First("a")
			return es.InsertAfter(first, Element("a", Text("z")))
		},
	}
	for name, edit := range edits {
		for as := 2; as <= n; as++ {
			for _, b := range []bool{false, true} {
				doc, err := ParseDocumentString(countedDoc(as, b))
				if err != nil {
					t.Fatal(err)
				}
				es := doc.Edit()
				if err := edit(es, doc.Root()); err != nil {
					t.Fatal(err)
				}
				st, castErr := c.ValidateModifiedStats(doc, es.Done())
				if st.ReverseScans != 0 {
					t.Fatalf("%s, %d a's, b=%v: scanned in reverse, want the forward scan", name, as, b)
				}
				edited, err := ParseDocumentString(doc.XML())
				if err != nil {
					t.Fatal(err)
				}
				if got, want := castErr == nil, dst.Validate(edited) == nil; got != want {
					t.Fatalf("%s, %d a's, b=%v: modified cast says %v, full validation %v (%v)", name, as, b, got, want, castErr)
				}
			}
		}
	}
}
