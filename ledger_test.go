package revalidate_test

// The ledger: the machine-independent work counters of the paper's
// evaluation (EDBT'04 §6) and of castload's document shapes, pinned
// exactly. Wall-clock lives in `go test -bench` (bench_test.go) and, end
// to end, in cmd/castload; what this table holds cannot drift with the
// host, so it is a Tier-1 test rather than a perf gate.

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	revalidate "repro"
	"repro/internal/baseline"
	"repro/internal/cast"
	"repro/internal/stream"
	"repro/internal/update"
	"repro/internal/wgen"
	"repro/internal/work"
)

// ledgerRow is one (workload, engine) cell. Every counter is exact. allocs
// is a budget (allocs/op ≤ allocs) on stream rows, checked only outside
// -race, where sync.Pool keeps its entries; tree rows leave it 0.
type ledgerRow struct {
	name string
	// bytes is the serialized document size (Table 2).
	bytes int64
	// elems and texts are the element and text nodes visited; their sum is
	// the paper's Table 3 "nodes traversed". Stream engines have no text
	// nodes: they count values checked instead.
	elems, texts int64
	// skimmed counts elements a stream cast consumed inside subsumed
	// subtrees without validation work.
	skimmed int64
	// steps are content-model automaton transitions (symbols scanned);
	// symSkipped are symbols seen after an immediate decision (§4).
	steps, symSkipped int64
	// subsumed counts subtrees skipped because (τ, τ') ∈ R_sub.
	subsumed int64
	// values counts simple values checked against facets (stream).
	values int64
	// reverse counts §4.3 content checks that scanned with the reverse
	// automaton (ValidateModified).
	reverse int64
	// allocs is the allocs/op budget of a stream row.
	allocs int64
	// reject marks a workload whose document the engine rejects; the
	// counters are then the work done up to the reject.
	reject bool
}

// literal renders r as the Go literal its table entry should read, listing
// only non-zero fields, so re-taking a row is a one-line edit.
func (r ledgerRow) literal() string {
	var b strings.Builder
	fmt.Fprintf(&b, "{name: %q", r.name)
	for _, f := range []struct {
		key string
		v   int64
	}{
		{"bytes", r.bytes}, {"elems", r.elems}, {"texts", r.texts}, {"skimmed", r.skimmed},
		{"steps", r.steps}, {"symSkipped", r.symSkipped}, {"subsumed", r.subsumed},
		{"values", r.values}, {"reverse", r.reverse}, {"allocs", r.allocs},
	} {
		if f.v != 0 {
			fmt.Fprintf(&b, ", %s: %d", f.key, f.v)
		}
	}
	if r.reject {
		b.WriteString(", reject: true")
	}
	b.WriteString("},")
	return b.String()
}

// ledger is the expected table. When a change moves a counter on purpose,
// TestLedger prints the row it measured; paste it over the old one.
var ledger = []ledgerRow{
	// Table 2: serialized sizes of the Seed-2004 orders.
	{name: "table2/items=2", bytes: 715},
	{name: "table2/items=50", bytes: 6978},
	{name: "table2/items=100", bytes: 13491},
	{name: "table2/items=200", bytes: 26537},
	{name: "table2/items=500", bytes: 65651},
	{name: "table2/items=1000", bytes: 130714},
	// Figure 3a / Experiment 1: the cast stops at purchaseOrder's children,
	// whatever the item count; full validation is linear.
	{name: "exp1/cast/items=2", elems: 4, steps: 2, symSkipped: 1, subsumed: 3},
	{name: "exp1/full/items=2", elems: 24, texts: 18, steps: 23},
	{name: "exp1/cast/items=50", elems: 4, steps: 2, symSkipped: 1, subsumed: 3},
	{name: "exp1/full/items=50", elems: 216, texts: 162, steps: 215},
	{name: "exp1/cast/items=100", elems: 4, steps: 2, symSkipped: 1, subsumed: 3},
	{name: "exp1/full/items=100", elems: 416, texts: 312, steps: 415},
	{name: "exp1/cast/items=200", elems: 4, steps: 2, symSkipped: 1, subsumed: 3},
	{name: "exp1/full/items=200", elems: 816, texts: 612, steps: 815},
	{name: "exp1/cast/items=500", elems: 4, steps: 2, symSkipped: 1, subsumed: 3},
	{name: "exp1/full/items=500", elems: 2016, texts: 1512, steps: 2015},
	{name: "exp1/cast/items=1000", elems: 4, steps: 2, symSkipped: 1, subsumed: 3},
	{name: "exp1/full/items=1000", elems: 4016, texts: 3012, steps: 4015},
	// Figure 3b / Experiment 2 and Table 3: nodes traversed = elems + texts
	// (1000 items: 5,004 cast vs. 7,028 full).
	{name: "exp2/cast/items=2", elems: 12, texts: 2, symSkipped: 11, subsumed: 6},
	{name: "exp2/full/items=2", elems: 24, texts: 18, steps: 23},
	{name: "exp2/cast/items=50", elems: 204, texts: 50, symSkipped: 203, subsumed: 102},
	{name: "exp2/full/items=50", elems: 216, texts: 162, steps: 215},
	{name: "exp2/cast/items=100", elems: 404, texts: 100, symSkipped: 403, subsumed: 202},
	{name: "exp2/full/items=100", elems: 416, texts: 312, steps: 415},
	{name: "exp2/cast/items=200", elems: 804, texts: 200, symSkipped: 803, subsumed: 402},
	{name: "exp2/full/items=200", elems: 816, texts: 612, steps: 815},
	{name: "exp2/cast/items=500", elems: 2004, texts: 500, symSkipped: 2003, subsumed: 1002},
	{name: "exp2/full/items=500", elems: 2016, texts: 1512, steps: 2015},
	{name: "exp2/cast/items=1000", elems: 4004, texts: 1000, symSkipped: 4003, subsumed: 2002},
	{name: "exp2/full/items=1000", elems: 4016, texts: 3012, steps: 4015},
	// §3.4 DTD label index.
	{name: "exp1/dtd-index/items=1000", elems: 2, steps: 2, symSkipped: 1, subsumed: 13},
	{name: "exp2/dtd-index/items=1000", elems: 2003, texts: 1000, symSkipped: 4003, subsumed: 10},
	// §3.3/§4.3 cast with modifications on the 1000-item order (full
	// revalidation of it visits what exp1/full/items=1000 does).
	{name: "mods/incremental/edits=1", elems: 1007, texts: 1, subsumed: 1003},
	{name: "mods/incremental/edits=4", elems: 1016, texts: 4, subsumed: 1006},
	{name: "mods/incremental/edits=16", elems: 1052, texts: 16, subsumed: 1018},
	{name: "mods/incremental/edits=64", elems: 1196, texts: 64, subsumed: 1066},
	{name: "mods/incremental/append-item", elems: 1008, texts: 3, steps: 4, subsumed: 1002, reverse: 1},
	// Streaming on the 500-item order, cast vs. full on the same walker.
	{name: "stream/exp1-cast/items=500", elems: 4, skimmed: 2012, steps: 2, symSkipped: 1, subsumed: 3, allocs: 2},
	{name: "stream/exp2-cast/items=500", elems: 2004, skimmed: 12, symSkipped: 2003, subsumed: 1002, values: 500, allocs: 2},
	{name: "stream/full/items=500", elems: 2016, steps: 2015, values: 1512, allocs: 2},
	// The same order with 40-byte productNames. The full row's budget is
	// one allocation per name; ROADMAP item 7 (facets over []byte) should
	// bring it back to 2.
	{name: "stream/full/long-names/items=500", elems: 2016, steps: 2015, values: 1512, allocs: 502},
	{name: "stream/exp2-cast/long-names/items=500", elems: 2004, skimmed: 12, symSkipped: 2003, subsumed: 1002, values: 500, allocs: 2},
	// castload's document shapes through the public StreamCaster.
	{name: "castload/msg-small/items=5", elems: 4, skimmed: 32, steps: 2, symSkipped: 1, subsumed: 3, allocs: 2},
	{name: "castload/po-facet-500/valid", elems: 2004, skimmed: 12, symSkipped: 2003, subsumed: 1002, values: 500, allocs: 2},
	{name: "castload/po-facet-500/reject", elems: 1007, skimmed: 12, symSkipped: 1006, subsumed: 503, values: 251, allocs: 11, reject: true},
}

// TestLedger measures every ledger workload and compares it with the table.
func TestLedger(t *testing.T) {
	measured := ledgerWorkloads(t)
	seen := map[string]bool{}
	for _, want := range ledger {
		seen[want.name] = true
		t.Run(want.name, func(t *testing.T) {
			measure, ok := measured[want.name]
			if !ok {
				t.Fatalf("no workload measures this row; delete it from the ledger")
			}
			got := measure()
			got.name = want.name
			if raceEnabled || got.allocs <= want.allocs {
				got.allocs = want.allocs // a budget: it holds, or -race cannot tell
			}
			if got != want {
				t.Errorf("row changed; measured:\n\t%s\nwas:\n\t%s", got.literal(), want.literal())
			}
		})
	}
	var missing []string
	for name := range measured {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		got := measured[name]()
		got.name = name
		t.Errorf("workload has no ledger row; add:\n\t%s", got.literal())
	}
}

// ledgerWorkloads builds every workload the ledger pins, keyed by row name.
func ledgerWorkloads(t *testing.T) map[string]func() ledgerRow {
	t.Helper()
	ps := wgen.NewPaperSchemas()
	w := map[string]func() ledgerRow{}

	// Table 2, and Experiments 1 (billTo optional → required) and 2
	// (quantity maxExclusive 200 → 100) at the paper's item counts: tree
	// cast vs. the Xerces-style full validator. The exp2 rows are Table 3.
	exp := []struct {
		name        string
		engine      *cast.Engine
		maxQuantity int
	}{
		{"exp1", cast.MustNew(ps.Source1, ps.Target, cast.Options{}), 0},
		{"exp2", cast.MustNew(ps.Source2, ps.Target, cast.Options{}), 99},
	}
	full := baseline.New(ps.Target)
	for _, n := range wgen.PaperItemCounts {
		w[fmt.Sprintf("table2/items=%d", n)] = func() ledgerRow {
			doc := wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, Seed: 2004})
			return ledgerRow{bytes: int64(len(wgen.POXMLBytes(doc)))}
		}
		for _, e := range exp {
			doc := wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, MaxQuantity: e.maxQuantity, Seed: 2004})
			engine := e.engine
			w[fmt.Sprintf("%s/cast/items=%d", e.name, n)] = func() ledgerRow { return counterRow(engine.Validate(doc)) }
			w[fmt.Sprintf("%s/full/items=%d", e.name, n)] = func() ledgerRow { return counterRow(full.Validate(doc)) }
			if n == 1000 {
				idx := cast.BuildLabelIndex(doc)
				w[fmt.Sprintf("%s/dtd-index/items=%d", e.name, n)] = func() ledgerRow { return counterRow(engine.ValidateDTD(doc, idx)) }
			}
		}
	}

	// §3.3/§4.3 cast with modifications: k quantity edits spread over the
	// 1000-item order, and one item appended at the end.
	same := cast.MustNew(ps.Target, ps.Target, cast.Options{})
	for _, edits := range []int{1, 4, 16, 64} {
		doc := wgen.PODocument(wgen.PODocOptions{Items: 1000, IncludeBillTo: true, Seed: 7})
		tk := update.NewTracker(doc)
		items := doc.Children[2].Children
		for i := 0; i < edits; i++ {
			qty := items[(i*37)%len(items)].Children[1].Children[0]
			if err := tk.SetText(qty, "7"); err != nil {
				t.Fatal(err)
			}
		}
		trie := tk.Finalize()
		w[fmt.Sprintf("mods/incremental/edits=%d", edits)] = func() ledgerRow { return counterRow(same.ValidateModified(doc, trie)) }
	}
	{
		doc := wgen.PODocument(wgen.PODocOptions{Items: 1000, IncludeBillTo: true, Seed: 7})
		tk := update.NewTracker(doc)
		items := doc.Children[2]
		if err := tk.AppendChild(items, items.Children[0].Clone()); err != nil {
			t.Fatal(err)
		}
		trie := tk.Finalize()
		w["mods/incremental/append-item"] = func() ledgerRow { return counterRow(same.ValidateModified(doc, trie)) }
	}

	// Streaming on the 500-item order: the Exp-1 and Exp-2 casts against
	// full validation on the same walker.
	po500 := wgen.PODocument(wgen.PODocOptions{Items: 500, IncludeBillTo: true, Seed: 11})
	data := wgen.POXMLBytes(po500)
	exp1, err := stream.NewCaster(ps.Source1, ps.Target)
	if err != nil {
		t.Fatal(err)
	}
	exp2, err := stream.NewCaster(ps.Source2, ps.Target)
	if err != nil {
		t.Fatal(err)
	}
	sfull := stream.NewValidator(ps.Target)
	w["stream/exp1-cast/items=500"] = streamRow(func() (work.Counters, error) { return exp1.Validate(bytes.NewReader(data)) })
	w["stream/exp2-cast/items=500"] = streamRow(func() (work.Counters, error) { return exp2.Validate(bytes.NewReader(data)) })
	w["stream/full/items=500"] = streamRow(func() (work.Counters, error) { return sfull.Validate(bytes.NewReader(data)) })

	// The same order with every productName 40 bytes long. Full validation
	// converts each value longer than the compiler's 32-byte stack buffer
	// to a heap string for its facet check; the Exp-2 cast skips
	// productName (subsumed), so it stays at the pooled floor.
	long := wgen.PODocument(wgen.PODocOptions{Items: 500, IncludeBillTo: true, Seed: 11})
	for _, item := range long.Children[2].Children {
		item.Children[0].Children[0].Text = strings.Repeat("productname-", 4)[:40]
	}
	longData := wgen.POXMLBytes(long)
	w["stream/full/long-names/items=500"] = streamRow(func() (work.Counters, error) { return sfull.Validate(bytes.NewReader(longData)) })
	w["stream/exp2-cast/long-names/items=500"] = streamRow(func() (work.Counters, error) { return exp2.Validate(bytes.NewReader(longData)) })

	// castload's document shapes through the public StreamCaster: the
	// msg-small order on the Exp-1 text pair, and the po-facet-500 order on
	// the Exp-2 text pair, valid and with one quantity out of the target's
	// range mid-document.
	msg := publicStreamCaster(t, wgen.Figure2XSD(true, 100), wgen.Figure2XSD(false, 100))
	msgData := wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: 5, IncludeBillTo: true, Seed: 1}))
	w["castload/msg-small/items=5"] = streamRow(publicValidate(msg, msgData))
	facet := publicStreamCaster(t, wgen.Figure2XSD(false, 200), wgen.Figure2XSD(false, 100))
	facetDoc := wgen.PODocument(wgen.PODocOptions{Items: 500, IncludeBillTo: true, Seed: 2})
	w["castload/po-facet-500/valid"] = streamRow(publicValidate(facet, wgen.POXMLBytes(facetDoc)))
	facetDoc.Children[2].Children[250].Children[1].Children[0].Text = "150"
	w["castload/po-facet-500/reject"] = streamRow(publicValidate(facet, wgen.POXMLBytes(facetDoc)))
	return w
}

// counterRow is the one work.Counters → ledgerRow adapter, for every
// engine: each fills only its own counters, so the others read 0.
func counterRow(st work.Counters, err error) ledgerRow {
	return ledgerRow{
		elems: st.ElementsVisited, texts: st.TextNodesVisited, skimmed: st.ElementsSkimmed,
		steps: st.AutomatonSteps, symSkipped: st.SymbolsSkipped, subsumed: st.SubsumedSkips,
		values: st.ValuesChecked, reverse: st.ReverseScans, reject: err != nil,
	}
}

// streamRow measures one streaming validation's counters and, outside
// -race, its allocs/op.
func streamRow(validate func() (work.Counters, error)) func() ledgerRow {
	return func() ledgerRow {
		r := counterRow(validate())
		if !raceEnabled {
			r.allocs = int64(testing.AllocsPerRun(20, func() { validate() }))
		}
		return r
	}
}

func publicStreamCaster(t *testing.T, srcXSD, dstXSD string) *revalidate.StreamCaster {
	t.Helper()
	u := revalidate.NewUniverse()
	src, err := u.LoadXSDString(srcXSD)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := u.LoadXSDString(dstXSD)
	if err != nil {
		t.Fatal(err)
	}
	c, err := revalidate.NewStreamCaster(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// publicValidate adapts the public StreamCaster to streamRow.
func publicValidate(c *revalidate.StreamCaster, data []byte) func() (work.Counters, error) {
	return func() (work.Counters, error) { return c.Validate(bytes.NewReader(data)) }
}
