package artifact

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	revalidate "repro"
	"repro/internal/cast"
	"repro/internal/fa"
	"repro/internal/regexpsym"
	"repro/internal/schema"
	"repro/internal/subsume"
	"repro/internal/wgen"
	"repro/internal/xmltree"
)

// The content-model table must change only what loading a schema costs,
// never what it produces: every pair below is compiled with no table, an
// empty (cold) table and a table already holding the pair's models (warm,
// filled the way registration fills it), and the three must agree byte for
// byte.

const poDTDOptionalBill = `
<!ELEMENT purchaseOrder (shipTo, billTo?, items)>
<!ELEMENT shipTo (name, street)>
<!ELEMENT billTo (name, street)>
<!ELEMENT items (item*)>
<!ELEMENT item (productName, quantity)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT street (#PCDATA)>
<!ELEMENT productName (#PCDATA)>
<!ELEMENT quantity (#PCDATA)>`

const poDTDRequiredBill = `
<!ELEMENT purchaseOrder (shipTo, billTo, items)>
<!ELEMENT shipTo (name, street)>
<!ELEMENT billTo (name, street)>
<!ELEMENT items (item+)>
<!ELEMENT item (productName, quantity?)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT street (#PCDATA)>
<!ELEMENT productName (#PCDATA)>
<!ELEMENT quantity (#PCDATA)>`

const noteDTD = `<!DOCTYPE note [
	<!ELEMENT note (to, from, (heading | subject)?, body)>
	<!ELEMENT to (#PCDATA)>
	<!ELEMENT from (#PCDATA)>
	<!ELEMENT heading (#PCDATA)>
	<!ELEMENT subject (#PCDATA)>
	<!ELEMENT body (#PCDATA)>
]>`

const noteDTDStrict = `<!DOCTYPE note [
	<!ELEMENT note (to+, from, heading, body)>
	<!ELEMENT to (#PCDATA)>
	<!ELEMENT from (#PCDATA)>
	<!ELEMENT heading (#PCDATA)>
	<!ELEMENT body (#PCDATA)>
]>`

type textPair struct {
	name     string
	src, dst SchemaInfo
}

// textCorpus is every schema-text pair the independence tests cover: the
// paper's Figure 2 pairs, the 48-section scaled pair, DTD pairs, and the
// pair embedded in the artifact fuzz seed.
func textCorpus(t *testing.T) []textPair {
	t.Helper()
	xsd := func(text string) SchemaInfo { return schemaInfo("xsd", "", text) }
	seed, err := parse(encodeFigPair(t))
	if err != nil {
		t.Fatalf("parse fuzz seed: %v", err)
	}
	return []textPair{
		{"figure2", xsd(wgen.Figure2XSD(true, 100)), xsd(wgen.Figure2XSD(false, 100))},
		{"figure2-facet", xsd(wgen.Figure2XSD(false, 200)), xsd(wgen.Figure2XSD(false, 100))},
		{"figure2-churn", xsd(wgen.Figure2XSD(true, 307)), xsd(wgen.Figure2XSD(false, 107))},
		{"scaled48", xsd(wgen.ScaledXSD(48, true, 200)), xsd(wgen.ScaledXSD(48, false, 100))},
		{"dtd-po", schemaInfo("dtd", "purchaseOrder", poDTDOptionalBill), schemaInfo("dtd", "purchaseOrder", poDTDRequiredBill)},
		{"dtd-note", schemaInfo("dtd", "", noteDTD), schemaInfo("dtd", "", noteDTDStrict)},
		{"fuzz-seed", seed.src, seed.dst},
	}
}

// warmTable returns a table holding the models of each text, acquired the
// way registry registration acquires them: one load per text, alone.
func warmTable(t testing.TB, infos ...SchemaInfo) *schema.ModelTable {
	t.Helper()
	tab := schema.NewModelTable()
	for _, in := range infos {
		s, err := loadInfo(revalidate.NewUniverseModels(tab), in)
		if err != nil {
			t.Fatalf("warm load: %v", err)
		}
		tab.Acquire(s.Abstract().Models())
	}
	return tab
}

type compiledPair struct {
	ss, ds *revalidate.Schema
	caster *revalidate.Caster
	blob   []byte
}

// compileText compiles the pair the registry way — both texts alone in one
// universe, source first — drawing models from tab.
func compileText(t *testing.T, p textPair, tab *schema.ModelTable) compiledPair {
	t.Helper()
	u := revalidate.NewUniverseModels(tab)
	ss, err := loadInfo(u, p.src)
	if err != nil {
		t.Fatalf("%s: load source: %v", p.name, err)
	}
	ds, err := loadInfo(u, p.dst)
	if err != nil {
		t.Fatalf("%s: load target: %v", p.name, err)
	}
	c, _, err := revalidate.NewCasterPair(ss, ds)
	if err != nil {
		t.Fatalf("%s: caster pair: %v", p.name, err)
	}
	blob, err := Encode(p.src, p.dst, c, c.Report())
	if err != nil {
		t.Fatalf("%s: encode: %v", p.name, err)
	}
	return compiledPair{ss: ss, ds: ds, caster: c, blob: blob}
}

// sourceDocs generates documents valid under the source schema, plus the
// purchase orders the Figure 2 pairs are about when the source accepts them.
func sourceDocs(t *testing.T, s *revalidate.Schema, n int) []*revalidate.Document {
	t.Helper()
	g := wgen.NewGenerator(s.Abstract(), rand.New(rand.NewSource(7)))
	var out []*revalidate.Document
	for i := 0; i < n; i++ {
		tree, ok := g.Document()
		if !ok {
			continue
		}
		doc, err := revalidate.ParseDocumentString(string(wgen.POXMLBytes(tree)))
		if err != nil {
			t.Fatalf("reparse generated document: %v", err)
		}
		out = append(out, doc)
	}
	for _, bill := range []bool{true, false} {
		if doc, err := revalidate.ParseDocumentString(poXML(bill)); err == nil && s.Validate(doc) == nil {
			out = append(out, doc)
		}
	}
	return out
}

func verdicts(c *revalidate.Caster, docs []*revalidate.Document) []bool {
	out := make([]bool, len(docs))
	for i, d := range docs {
		out[i] = c.Validate(d) == nil
	}
	return out
}

// assertUniverseEquivalent checks every content DFA of s against the
// pre-table compile: straight over the schema's shared alphabet, widened
// and restricted the way Compile does.
func assertUniverseEquivalent(t *testing.T, name string, s *schema.Schema) {
	t.Helper()
	for _, ty := range s.Types {
		if ty.Simple {
			continue
		}
		want := regexpsym.Compile(ty.Content, s.Alpha)
		want = fa.RestrictSymbols(want.Widen(ty.DFA.NumSymbols()), productiveMask(s, ty))
		if !fa.Equivalent(ty.DFA, want) {
			t.Errorf("%s: type %q: relabelled DFA not equivalent to the universe compile of %s",
				name, ty.Name, regexpsym.String(ty.Content))
		}
	}
}

// productiveMask mirrors Compile's productivity rewrite, which restricts
// every automaton to labels whose child type is productive.
func productiveMask(s *schema.Schema, ty *schema.Type) []bool {
	prod := s.Productive()
	mask := make([]bool, ty.DFA.NumSymbols())
	for sym, child := range ty.Child {
		if prod[child] {
			mask[sym] = true
		}
	}
	return mask
}

// assertKeysRoundTrip checks every content model of s renders to a key that
// Parse reads back to the same rendering.
func assertKeysRoundTrip(t *testing.T, name string, s *schema.Schema) {
	t.Helper()
	for _, ty := range s.Types {
		if ty.Simple {
			continue
		}
		key, ok := regexpsym.Key(ty.Content)
		if !ok {
			t.Errorf("%s: type %q: model %s has no key", name, ty.Name, regexpsym.String(ty.Content))
			continue
		}
		back, err := regexpsym.Parse(key)
		if err != nil {
			t.Errorf("%s: type %q: key %q does not parse: %v", name, ty.Name, key, err)
			continue
		}
		if got := regexpsym.String(back); got != key {
			t.Errorf("%s: type %q: key %q re-renders as %q", name, ty.Name, key, got)
		}
	}
}

func TestModelTableCacheStateIndependence(t *testing.T) {
	for _, p := range textCorpus(t) {
		t.Run(p.name, func(t *testing.T) {
			none := compileText(t, p, nil)
			cold := compileText(t, p, schema.NewModelTable())
			warmTab := warmTable(t, p.src, p.dst)
			warm := compileText(t, p, warmTab)

			for _, m := range none.ss.Abstract().Models() {
				t.Errorf("no-table load produced keyed model %q", m.Key)
			}
			for _, s := range []*revalidate.Schema{warm.ss, warm.ds} {
				for _, ty := range s.Abstract().Types {
					if !ty.Simple && warmTab.Lookup(ty.Model.Key) != ty.Model {
						t.Errorf("warm table: type %q compiled its model instead of reusing the table's", ty.Name)
					}
				}
			}
			for mode, got := range map[string]compiledPair{"cold": cold, "warm": warm} {
				if !bytes.Equal(got.blob, none.blob) {
					t.Errorf("%s table: artifact bytes differ from the no-table compile", mode)
				}
				wantSub, wantNondis := relations(none.caster)
				gotSub, gotNondis := relations(got.caster)
				if !reflect.DeepEqual(gotSub, wantSub) || !reflect.DeepEqual(gotNondis, wantNondis) {
					t.Errorf("%s table: R_sub/R_nondis differ from the no-table compile", mode)
				}
			}

			docs := sourceDocs(t, none.ss, 40)
			want := verdicts(none.caster, docs)
			dec, err := Decode(warm.blob)
			if err != nil {
				t.Fatalf("standalone Decode of the warm-table blob: %v", err)
			}
			for mode, c := range map[string]*revalidate.Caster{"cold": cold.caster, "warm": warm.caster, "decoded": dec.Caster} {
				if got := verdicts(c, docs); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: verdicts %v, want %v", mode, got, want)
				}
			}
			for _, s := range []*schema.Schema{none.ss.Abstract(), none.ds.Abstract()} {
				assertUniverseEquivalent(t, p.name, s)
				assertKeysRoundTrip(t, p.name, s)
			}
		})
	}
}

func relations(c *revalidate.Caster) (sub, nondis [][]bool) {
	rel, _ := c.Parts()
	return rel.Matrices()
}

// rebuild copies a compiled random schema into a fresh alphabet (interning
// the original's labels in the original order, so symbols line up) and
// compiles it through tab.
func rebuild(t *testing.T, s *schema.Schema, alpha *fa.Alphabet, tab *schema.ModelTable) *schema.Schema {
	t.Helper()
	out := schema.New(alpha)
	for _, ty := range s.Types {
		var err error
		if ty.Simple {
			_, err = out.AddSimpleType(ty.Name, ty.Value)
		} else {
			_, err = out.AddComplexType(ty.Name, ty.Content)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, ty := range s.Types {
		for sym, child := range ty.Child {
			if err := out.SetChildType(ty.ID, s.Alpha.Name(sym), child); err != nil {
				t.Fatal(err)
			}
		}
	}
	for sym, τ := range s.Roots {
		out.SetRoot(s.Alpha.Name(sym), τ)
	}
	if err := out.CompileWith(tab); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	return out
}

func TestModelTableCacheStateIndependenceRandom(t *testing.T) {
	labels := []string{"a", "b", "c", "d", "e", "f"}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		alpha := fa.NewAlphabet()
		alpha.Symbols(labels...)
		opts := wgen.RandomSchemaOptions{Labels: labels}
		src := wgen.RandomSchema(rng, alpha, opts)
		dst := wgen.MutateSchema(rng, src, labels)
		name := fmt.Sprintf("seed %d", seed)

		warmTab := schema.NewModelTable()
		type built struct {
			src, dst *schema.Schema
			rel      *subsume.Relations
			engine   *cast.Engine
		}
		build := func(tab *schema.ModelTable) built {
			a := fa.NewAlphabet()
			a.Symbols(alpha.Names()...)
			b := built{src: rebuild(t, src, a, tab), dst: rebuild(t, dst, a, tab)}
			var err error
			if b.rel, err = subsume.Compute(b.src, b.dst); err != nil {
				t.Fatalf("%s: relations: %v", name, err)
			}
			if b.engine, err = cast.New(b.src, b.dst, cast.Options{}); err != nil {
				t.Fatalf("%s: engine: %v", name, err)
			}
			return b
		}
		none := build(nil)
		cold := build(schema.NewModelTable())
		warmTab.Acquire(cold.src.Models())
		warmTab.Acquire(cold.dst.Models())
		warm := build(warmTab)

		g := wgen.NewGenerator(none.src, rand.New(rand.NewSource(seed)))
		var docs []*xmltree.Node
		for i := 0; i < 20; i++ {
			if tree, ok := g.Document(); ok {
				docs = append(docs, tree)
			}
		}
		for mode, b := range map[string]built{"cold": cold, "warm": warm} {
			for _, pair := range [][2]*schema.Schema{{none.src, b.src}, {none.dst, b.dst}} {
				for i, ty := range pair[0].Types {
					if ty.Simple {
						continue
					}
					ws, wa, wt := ty.DFA.Table()
					gs, ga, gt := pair[1].Types[i].DFA.Table()
					if ws != gs || !reflect.DeepEqual(wa, ga) || !reflect.DeepEqual(wt, gt) {
						t.Errorf("%s, %s table: type %q DFA differs from the no-table compile", name, mode, ty.Name)
					}
				}
			}
			ws, wn := none.rel.Matrices()
			gs, gn := b.rel.Matrices()
			if !reflect.DeepEqual(ws, gs) || !reflect.DeepEqual(wn, gn) {
				t.Errorf("%s, %s table: R_sub/R_nondis differ", name, mode)
			}
			for i, d := range docs {
				_, werr := none.engine.Validate(d)
				_, gerr := b.engine.Validate(d)
				if (werr == nil) != (gerr == nil) {
					t.Errorf("%s, %s table: doc %d verdict %v, no-table verdict %v", name, mode, i, gerr, werr)
				}
			}
		}
		assertUniverseEquivalent(t, name, none.src)
		assertUniverseEquivalent(t, name, none.dst)
		assertKeysRoundTrip(t, name, none.src)
		assertKeysRoundTrip(t, name, none.dst)
	}
}
