package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	revalidate "repro"
	"repro/internal/regexpsym"
	"repro/internal/schema"
	"repro/internal/wgen"
)

// versionXSD is one version of an evolving schema: the root's content model
// changes with n (a fresh model per version), while the address type's
// model is the same in every version.
func versionXSD(root string, n int) string {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="` + root + `" type="RootType"/>
  <xsd:complexType name="RootType"><xsd:sequence>
    <xsd:element name="addr" type="Addr"/>
`)
	for i := 0; i < n%5+1; i++ {
		fmt.Fprintf(&b, "    <xsd:element name=\"f%d_%d\" type=\"xsd:string\" minOccurs=\"%d\"/>\n", n, i, i%2)
	}
	b.WriteString(`  </xsd:sequence></xsd:complexType>
  <xsd:complexType name="Addr"><xsd:sequence>
    <xsd:element name="name" type="xsd:string"/>
    <xsd:element name="street" type="xsd:string"/>
  </xsd:sequence></xsd:complexType>
</xsd:schema>`)
	return b.String()
}

// wantKeys is the set of model keys the given texts use, computed apart
// from any registry.
func wantKeys(t *testing.T, texts []string) []string {
	t.Helper()
	set := map[string]bool{}
	for _, text := range texts {
		s, err := revalidate.NewUniverseModels(schema.NewModelTable()).LoadXSDString(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range s.Abstract().Models() {
			set[m.Key] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func tableKeys(r *Registry) []string {
	keys := r.models.Keys()
	sort.Strings(keys)
	return keys
}

// TestModelTableLifetime hot-swaps every id many times, compiling pairs in
// between: afterwards the table holds exactly the models of the current
// bindings — swapped-out versions were released, and pair compiles never
// inserted anything.
func TestModelTableLifetime(t *testing.T) {
	r := New(Config{MaxEntries: 4})
	ids := []string{"a", "b", "c"}
	current := map[string]string{}
	var first []*SchemaEntry
	const rounds = 12
	for round := 0; round < rounds; round++ {
		for i, id := range ids {
			text := versionXSD("root"+id, round*len(ids)+i)
			e, err := r.Register(id, text, FormatAuto, "")
			if err != nil {
				t.Fatalf("round %d register %s: %v", round, id, err)
			}
			if round == 0 {
				first = append(first, e)
			}
			current[id] = text
		}
		if _, err := r.Pair("a", "b"); err != nil {
			t.Fatalf("round %d pair: %v", round, err)
		}
	}
	// A compile of swapped-out versions misses the table and must not
	// insert what it compiled.
	if _, err := compilePair(first[0], first[1], r.models); err != nil {
		t.Fatal(err)
	}
	texts := make([]string, 0, len(current))
	for _, text := range current {
		texts = append(texts, text)
	}
	want := wantKeys(t, texts)
	if got := tableKeys(r); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("table holds %d models:\n%s\nwant the %d of the current bindings:\n%s",
			len(got), strings.Join(got, "\n"), len(want), strings.Join(want, "\n"))
	}
	// Re-registering identical content keeps every model exactly once.
	if _, err := r.Register("a", current["a"], FormatAuto, ""); err != nil {
		t.Fatal(err)
	}
	if got := tableKeys(r); len(got) != len(want) {
		t.Fatalf("identical re-registration changed the table: %d models, want %d", len(got), len(want))
	}
}

// allXSD declares its root with an xs:all group (exempt from UPA); its
// permutation expansion renders exactly like choiceXSD's explicit choice of
// sequences, which is not 1-unambiguous.
func allXSD(root string) string {
	return `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="` + root + `"><xsd:complexType><xsd:all>
    <xsd:element name="a" type="xsd:string"/>
    <xsd:element name="b" type="xsd:string"/>
    <xsd:element name="c" type="xsd:string"/>
  </xsd:all></xsd:complexType></xsd:element>
</xsd:schema>`
}

func choiceXSD() string {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="r"><xsd:complexType><xsd:choice>
`)
	for _, perm := range []string{"abc", "acb", "bac", "bca", "cba", "cab"} {
		b.WriteString("    <xsd:sequence>")
		for _, l := range perm {
			fmt.Fprintf(&b, `<xsd:element name="%c" type="xsd:string"/>`, l)
		}
		b.WriteString("</xsd:sequence>\n")
	}
	b.WriteString(`  </xsd:choice></xsd:complexType></xsd:element>
</xsd:schema>`)
	return b.String()
}

// TestModelTableUPA: a content model that is not 1-unambiguous is rejected
// whether its key is cold or already in the table (put there by an xs:all
// type, which is exempt), and xs:all types sharing a key still load.
func TestModelTableUPA(t *testing.T) {
	cold := New(Config{})
	if _, err := cold.Register("r", choiceXSD(), FormatAuto, ""); err == nil || !strings.Contains(err.Error(), "1-unambiguous") {
		t.Fatalf("cold key: register error = %v, want a 1-unambiguity rejection", err)
	}
	if n := len(cold.models.Keys()); n != 0 {
		t.Fatalf("rejected registration left %d models in the table", n)
	}

	warm := New(Config{})
	if _, err := warm.Register("all1", allXSD("x"), FormatAuto, ""); err != nil {
		t.Fatalf("xs:all schema rejected: %v", err)
	}
	if _, err := warm.Register("all2", allXSD("y"), FormatAuto, ""); err != nil {
		t.Fatalf("second xs:all schema sharing the key rejected: %v", err)
	}
	s, err := revalidate.NewUniverse().LoadXSDString(allXSD("x"))
	if err != nil {
		t.Fatal(err)
	}
	var key string
	for _, ty := range s.Abstract().Types {
		if ty.SkipUPA {
			key, _ = regexpsym.Key(ty.Content)
		}
	}
	if m := warm.models.Lookup(key); m == nil || m.OneUnambiguous {
		t.Fatalf("table entry for the xs:all model %q = %+v, want a shared non-1-unambiguous model", key, m)
	}
	if _, err := warm.Register("r", choiceXSD(), FormatAuto, ""); err == nil || !strings.Contains(err.Error(), "1-unambiguous") || !strings.Contains(err.Error(), key) {
		t.Fatalf("warm key: register error = %v, want a 1-unambiguity rejection of %s", err, key)
	}
	if _, err := warm.Pair("all1", "all2"); err != nil {
		t.Fatalf("pair of xs:all schemas: %v", err)
	}
}

// TestModelTableConcurrent runs hot-swapping registrations beside pair
// compiles; under -race it checks the table is shared safely.
func TestModelTableConcurrent(t *testing.T) {
	r := New(Config{MaxEntries: 2})
	for _, id := range []string{"s", "t"} {
		if _, err := r.Register(id, versionXSD("root", 0), FormatAuto, ""); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := []string{"s", "t"}[w]
				if _, err := r.Register(id, versionXSD("root", i%3), FormatAuto, ""); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := r.Pair("s", "t"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := tableKeys(r), wantKeys(t, []string{r.schemas["s"].Text, r.schemas["t"].Text}); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("table holds %v, want %v", got, want)
	}
}

// Allocation pins for the two loads the table serves, at the measured
// value + 10%. Before the table a warm Register allocated 1,854 times and
// the churn pair's compile 4,948 times; with it, 675 and 2,590; with the
// schema text parsed on xmlscan instead of encoding/xml, 302 and 1,067;
// with c_immed built over reachable pairs only and no artifact encoded on
// compile, 302 and 803.
const (
	registerAllocsMax    = 332
	compilePairAllocsMax = 883
)

func TestRegisterAllocs(t *testing.T) {
	r := New(Config{})
	text := wgen.Figure2XSD(true, 100)
	if _, err := r.Register("a", text, FormatAuto, ""); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Register("a", text, FormatAuto, ""); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > registerAllocsMax {
		t.Fatalf("Register on a warm table allocated %v times, budget %d", allocs, registerAllocsMax)
	}
}

func TestCompilePairAllocs(t *testing.T) {
	r := New(Config{})
	// The pair-churn workload's pair shape: same content models, different
	// facets and one minOccurs.
	if _, err := r.Register("s", wgen.Figure2XSD(true, 300), FormatAuto, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("t", wgen.Figure2XSD(false, 100), FormatAuto, ""); err != nil {
		t.Fatal(err)
	}
	src, _ := r.Schema("s")
	dst, _ := r.Schema("t")
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := compilePair(src, dst, r.models); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > compilePairAllocsMax {
		t.Fatalf("compilePair allocated %v times, budget %d", allocs, compilePairAllocsMax)
	}
}

func BenchmarkRegisterWarm(b *testing.B) {
	r := New(Config{})
	text := wgen.Figure2XSD(true, 100)
	if _, err := r.Register("a", text, FormatAuto, ""); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Register("a", text, FormatAuto, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompilePair(b *testing.B) {
	r := New(Config{})
	r.Register("s", wgen.Figure2XSD(true, 300), FormatAuto, "")
	r.Register("t", wgen.Figure2XSD(false, 100), FormatAuto, "")
	src, _ := r.Schema("s")
	dst, _ := r.Schema("t")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compilePair(src, dst, r.models); err != nil {
			b.Fatal(err)
		}
	}
}
