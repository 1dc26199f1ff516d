// Benchmarks regenerating the paper's evaluation (EDBT'04 §6): one
// benchmark family per table/figure, plus the ablations DESIGN.md calls
// out. `go test -bench=. -benchmem` prints the series; `cmd/castbench`
// renders Tables 1–3 and Figure 3 as paper-style tables, and TestLedger
// (ledger_test.go) pins the work counters behind them exactly.
package revalidate_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	revalidate "repro"
	"repro/internal/artifact"
	"repro/internal/baseline"
	"repro/internal/cast"
	"repro/internal/fa"
	"repro/internal/regexpsym"
	"repro/internal/resilience"
	"repro/internal/strcast"
	"repro/internal/stream"
	"repro/internal/subsume"
	"repro/internal/telemetry"
	"repro/internal/update"
	"repro/internal/wgen"
	"repro/internal/xmltree"
)

// --- Table 2: input document file sizes --------------------------------

// BenchmarkTable2Serialize measures document generation + serialization at
// the paper's item counts; the reported bytes/op are the Table 2 sizes.
func BenchmarkTable2Serialize(b *testing.B) {
	for _, n := range wgen.PaperItemCounts {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			doc := wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, Seed: 2004})
			size := len(wgen.POXMLBytes(doc))
			b.ReportMetric(float64(size), "filebytes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = wgen.POXMLBytes(doc)
			}
		})
	}
}

// --- Figure 3a: Experiment 1 -------------------------------------------

// BenchmarkExperiment1 validates Figure-1a documents (billTo present,
// optional in the source) against the Figure-2 target (billTo required).
// The cast series is expected flat in item count; the full series linear.
func BenchmarkExperiment1(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	engine := cast.MustNew(ps.Source1, ps.Target, cast.Options{})
	base := baseline.New(ps.Target)
	for _, n := range wgen.PaperItemCounts {
		doc := wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, Seed: 2004})
		b.Run(fmt.Sprintf("cast/items=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Validate(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("full/items=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := base.Validate(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 3b: Experiment 2 -------------------------------------------

// BenchmarkExperiment2 validates maxExclusive=200 documents (quantities all
// < 100) against the maxExclusive=100 target: every quantity value must be
// read, so both series are linear; the cast skips the other item children.
func BenchmarkExperiment2(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	engine := cast.MustNew(ps.Source2, ps.Target, cast.Options{})
	base := baseline.New(ps.Target)
	for _, n := range wgen.PaperItemCounts {
		doc := wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, MaxQuantity: 99, Seed: 2004})
		b.Run(fmt.Sprintf("cast/items=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Validate(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("full/items=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := base.Validate(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 3: nodes visited in Experiment 2 ----------------------------

// BenchmarkTable3NodesVisited reports the nodes-visited metric per
// validation as a custom benchmark metric (nodes/op) for both validators.
func BenchmarkTable3NodesVisited(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	engine := cast.MustNew(ps.Source2, ps.Target, cast.Options{})
	base := baseline.New(ps.Target)
	for _, n := range wgen.PaperItemCounts {
		doc := wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, MaxQuantity: 99, Seed: 2004})
		b.Run(fmt.Sprintf("cast/items=%d", n), func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				st, err := engine.Validate(doc)
				if err != nil {
					b.Fatal(err)
				}
				nodes = st.NodesVisited()
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
		b.Run(fmt.Sprintf("full/items=%d", n), func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				st, err := base.Validate(doc)
				if err != nil {
					b.Fatal(err)
				}
				nodes = st.NodesVisited()
			}
			b.ReportMetric(float64(nodes), "nodes/op")
		})
	}
}

// --- Ablation: §4 content IDAs on/off ----------------------------------

// BenchmarkContentIDAAblation compares the full engine against the
// paper's modified-Xerces configuration (relations only, plain DFA scans
// for content models).
func BenchmarkContentIDAAblation(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	withIDA := cast.MustNew(ps.Source2, ps.Target, cast.Options{})
	withoutIDA := cast.MustNew(ps.Source2, ps.Target, cast.Options{DisableContentIDA: true})
	doc := wgen.PODocument(wgen.PODocOptions{Items: 500, IncludeBillTo: true, MaxQuantity: 99, Seed: 5})
	b.Run("with-content-IDA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := withIDA.Validate(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plain-DFA-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := withoutIDA.Validate(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: §3.4 DTD label index ------------------------------------

// BenchmarkDTDLabelIndex compares the generic top-down cast against the
// label-indexed variant (index build amortized and also measured alone).
func BenchmarkDTDLabelIndex(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	engine := cast.MustNew(ps.Source2, ps.Target, cast.Options{})
	doc := wgen.PODocument(wgen.PODocOptions{Items: 500, IncludeBillTo: true, MaxQuantity: 99, Seed: 6})
	idx := cast.BuildLabelIndex(doc)
	b.Run("top-down", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Validate(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("label-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.ValidateDTD(doc, idx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("index-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cast.BuildLabelIndex(doc)
		}
	})
}

// --- §3.3 / §4.3: incremental revalidation after edits ------------------

// BenchmarkModifiedRevalidation measures schema cast with modifications at
// growing edit counts against full revalidation of the edited document.
func BenchmarkModifiedRevalidation(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	engine := cast.MustNew(ps.Target, ps.Target, cast.Options{})
	base := baseline.New(ps.Target)
	for _, edits := range []int{1, 4, 16, 64} {
		doc := wgen.PODocument(wgen.PODocOptions{Items: 1000, IncludeBillTo: true, Seed: 7})
		tk := update.NewTracker(doc)
		items := doc.Children[2].Children
		for i := 0; i < edits; i++ {
			qty := items[(i*37)%len(items)].Children[1].Children[0]
			if err := tk.SetText(qty, "7"); err != nil {
				b.Fatal(err)
			}
		}
		trie := tk.Finalize()
		b.Run(fmt.Sprintf("incremental/edits=%d", edits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.ValidateModified(doc, trie); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("full/edits=%d", edits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := base.Validate(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §4: string-level IDA vs plain rescan ------------------------------

// BenchmarkIDAvsPlainScan sweeps string length for casting strings in L(a)
// against b with the immediate decision automaton (which decides after a
// bounded prefix here) versus a full rescan with b.
func BenchmarkIDAvsPlainScan(b *testing.B) {
	alpha := fa.NewAlphabet()
	// Source: x (y | z)*; target: x y* — verdict is forced at the first z
	// or, absent z, only at the end; on all-y strings the IDA immediately
	// accepts after 1 symbol because L(q) coincides.
	a := regexpsym.Compile(regexpsym.MustParse("x, (y)*"), alpha)
	t := regexpsym.Compile(regexpsym.MustParse("x, y*"), alpha)
	caster := strcast.New(a, t)
	for _, n := range []int{10, 1000, 100000} {
		word := make([]fa.Symbol, 0, n+1)
		word = append(word, alpha.Lookup("x"))
		for i := 0; i < n; i++ {
			word = append(word, alpha.Lookup("y"))
		}
		b.Run(fmt.Sprintf("ida/len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := caster.Validate(word); !res.Accepted {
					b.Fatal("should accept")
				}
			}
		})
		b.Run(fmt.Sprintf("rescan/len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !t.Accepts(word) {
					b.Fatal("should accept")
				}
			}
		})
	}
}

// BenchmarkReverseScan measures the §4.3 direction choice: after an append
// at the end of a long string, the reverse-automaton scan touches O(1)
// symbols while a forward rescan touches all of them.
func BenchmarkReverseScan(b *testing.B) {
	alpha := fa.NewAlphabet()
	a := regexpsym.Compile(regexpsym.MustParse("x, y*"), alpha)
	t := regexpsym.Compile(regexpsym.MustParse("x, y*"), alpha)
	caster := strcast.New(a, t)
	for _, n := range []int{100, 10000} {
		base := make([]fa.Symbol, 0, n+2)
		base = append(base, alpha.Lookup("x"))
		for i := 0; i < n; i++ {
			base = append(base, alpha.Lookup("y"))
		}
		ed := strcast.NewEditor(base)
		ed.Append(alpha.Lookup("y"))
		p, q := ed.Bounds()
		b.Run(fmt.Sprintf("reverse/len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := caster.ValidateModified(ed.Original(), ed.Current(), p, q)
				if !res.Accepted || !res.Reversed {
					b.Fatalf("expected reverse-accepted, got %+v", res)
				}
			}
		})
		b.Run(fmt.Sprintf("forward-rescan/len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := caster.ValidateModified(ed.Original(), ed.Current(), 0, 0)
				if !res.Accepted {
					b.Fatal("should accept")
				}
			}
		})
	}
}

// --- Preprocessing costs ------------------------------------------------

// BenchmarkRsubPrecompute measures the one-time static analysis: the
// R_sub/R_dis fixpoints, full engine construction for the paper pair, and
// one content-model IDA pair (POType1/POType2).
func BenchmarkRsubPrecompute(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	b.Run("relations", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			subsume.MustCompute(ps.Source1, ps.Target)
		}
	})
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cast.MustNew(ps.Source1, ps.Target, cast.Options{})
		}
	})
	b.Run("schema-compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wgen.NewPaperSchemas()
		}
	})
	b.Run("ida-pair", func(b *testing.B) {
		src := ps.Source1.TypeOf(ps.Source1.TypeByName("POType1")).DFA
		dst := ps.Target.TypeOf(ps.Target.TypeByName("POType2")).DFA
		for i := 0; i < b.N; i++ {
			strcast.New(src, dst)
		}
	})
}

// BenchmarkColdVsWarmStart acquires one compiled pair two ways: cold, by
// compiling it (universe load + relation fixpoints + IDA construction),
// and warm, by loading its artifact blob from a store (disk read + decode
// + schema re-parse + fingerprint check), which is what castd pays per
// pair after a restart with -artifact-dir. The pair is wgen.ScaledXSD at
// 48 section types a side, large enough that the quadratic pair work
// shows over the per-schema compile both paths share. ROADMAP item 9
// (a cold compile as cheap as a restore) is judged by this ratio.
func BenchmarkColdVsWarmStart(b *testing.B) {
	srcText, dstText := wgen.ScaledXSD(48, true, 100), wgen.ScaledXSD(48, false, 100)
	compile := func(b *testing.B) *revalidate.Caster {
		u := revalidate.NewUniverse()
		src, err := u.LoadXSDString(srcText)
		if err != nil {
			b.Fatal(err)
		}
		dst, err := u.LoadXSDString(dstText)
		if err != nil {
			b.Fatal(err)
		}
		c, _, err := revalidate.NewCasterPair(src, dst)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compile(b)
		}
	})
	b.Run("warm", func(b *testing.B) {
		info := func(text string) artifact.SchemaInfo {
			h := sha256.Sum256([]byte("xsd\x00\x00" + text))
			return artifact.SchemaInfo{Format: "xsd", Text: text, Hash: hex.EncodeToString(h[:])}
		}
		src, dst := info(srcText), info(dstText)
		store, err := artifact.OpenStore(b.TempDir(), nil)
		if err != nil {
			b.Fatal(err)
		}
		c := compile(b)
		blob, err := artifact.Encode(src, dst, c, c.Report())
		if err != nil {
			b.Fatal(err)
		}
		key := artifact.Key(src.Hash, dst.Hash)
		if err := store.Put(key, blob); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := store.LoadPair(key, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Supporting micro-benchmarks ----------------------------------------

// BenchmarkParseDocument measures XML parsing into the ordered-tree model.
func BenchmarkParseDocument(b *testing.B) {
	for _, n := range []int{50, 1000} {
		data := wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, Seed: 8}))
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := xmltree.ParseString(string(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerator measures random valid-document generation (the
// workload generator itself).
func BenchmarkGenerator(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	rng := rand.New(rand.NewSource(9))
	gen := wgen.NewGenerator(ps.Target, rng)
	for i := 0; i < b.N; i++ {
		if _, ok := gen.Document(); !ok {
			b.Fatal("generation failed")
		}
	}
}

// --- Streaming vs tree-based validation ---------------------------------

// BenchmarkStreaming compares tree-building + cast against pure streaming
// validation and streaming cast on serialized input (the broker setting:
// documents arrive as bytes).
func BenchmarkStreaming(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	data := wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: 500, IncludeBillTo: true, Seed: 10}))
	engine := cast.MustNew(ps.Source1, ps.Target, cast.Options{})
	streamCaster, err := stream.NewCaster(ps.Source1, ps.Target)
	if err != nil {
		b.Fatal(err)
	}
	streamFull := stream.NewValidator(ps.Target)
	b.Run("parse+tree-cast", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			doc, err := xmltree.ParseString(string(data))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := engine.Validate(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream-cast", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := streamCaster.Validate(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream-full", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := streamFull.Validate(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})

	// What castd adds around a cast, each on top of the same stream cast;
	// compare each against stream-cast. The runtime sampler ticks at a
	// hostile 10ms (castd's default is 10s).
	streamCast := func(b *testing.B) {
		if _, err := streamCaster.Validate(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("stream-cast+runtime-sampler-10ms", func(b *testing.B) {
		col := telemetry.NewRuntimeCollector(telemetry.NewRegistry(), 10*time.Millisecond)
		col.Start()
		defer col.Stop()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			streamCast(b)
		}
	})
	// A traced request's latency observation: one heap-allocated exemplar
	// and an atomic pointer store.
	b.Run("stream-cast+exemplar", func(b *testing.B) {
		h := telemetry.NewRegistry().Histogram("bench_cast_seconds", "", telemetry.DefBuckets())
		const traceID, spanID = "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7"
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			start := time.Now()
			streamCast(b)
			h.ObserveExemplar(time.Since(start).Seconds(), traceID, spanID, time.Now())
		}
	})
	// The guard sequence a clustered cast pays on a healthy peer path:
	// breaker admission, retry-budget deposit, success record, latency
	// observation and the hedge-delay percentile read.
	b.Run("stream-cast+resilience-guard", func(b *testing.B) {
		br := resilience.NewBreaker(resilience.BreakerConfig{})
		budget := resilience.NewBudget(0, 0)
		var lat resilience.LatencyTracker
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if !br.Allow() {
				b.Fatal("breaker opened on an all-success run")
			}
			budget.Deposit()
			start := time.Now()
			streamCast(b)
			br.Record(true)
			lat.Observe(time.Since(start))
			lat.Percentile(0.95)
		}
	})
}

// --- Parallel validation: hot-path contention ----------------------------

// BenchmarkParallelCast races goroutines on ONE shared engine over the
// Experiment-1 workload. With the lock-free caster table the per-element
// validate path takes no mutex, so throughput should scale with -cpu
// (vary goroutines with `go test -bench=ParallelCast -cpu=1,2,4,8`).
func BenchmarkParallelCast(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	doc := wgen.PODocument(wgen.PODocOptions{Items: 500, IncludeBillTo: true, Seed: 2004})
	b.Run("tree-cast", func(b *testing.B) {
		engine := cast.MustNew(ps.Source1, ps.Target, cast.Options{})
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := engine.Validate(doc); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	// On-demand pairs only: with relations disabled every content model
	// runs, and subsumed pairs' casters come from the copy-on-write
	// overflow — the path a mutex used to serialize.
	b.Run("tree-cast-on-demand", func(b *testing.B) {
		engine := cast.MustNew(ps.Source1, ps.Target, cast.Options{DisableRelations: true})
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := engine.Validate(doc); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	data := string(wgen.POXMLBytes(doc))
	b.Run("stream-cast", func(b *testing.B) {
		sc, err := stream.NewCaster(ps.Source1, ps.Target)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := sc.Validate(strings.NewReader(data)); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkParallelBatchScaling sweeps the worker count of the public
// batch APIs, tree and stream: the tracked series is docs/sec at
// 1→GOMAXPROCS workers. The workload is the Experiment-2 pair — every
// quantity facet must be checked, so per-document work is linear in items
// and the curve reflects validation scaling rather than pool overhead
// (Experiment-1 documents cast in O(1), ~140ns, far below per-task
// dispatch cost).
func BenchmarkParallelBatchScaling(b *testing.B) {
	u := revalidate.NewUniverse()
	src, err := u.LoadXSDString(wgen.Figure2XSD(false, 200))
	if err != nil {
		b.Fatal(err)
	}
	dst, err := u.LoadXSDString(wgen.Figure2XSD(false, 100))
	if err != nil {
		b.Fatal(err)
	}
	caster, err := revalidate.NewCaster(src, dst)
	if err != nil {
		b.Fatal(err)
	}
	streamCaster, err := revalidate.NewStreamCaster(src, dst)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	docs := make([]*revalidate.Document, batch)
	raw := make([][]byte, batch)
	for i := range docs {
		raw[i] = wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{
			Items: 200, IncludeBillTo: true, MaxQuantity: 99, Seed: int64(i)}))
		doc, err := revalidate.ParseDocument(bytes.NewReader(raw[i]))
		if err != nil {
			b.Fatal(err)
		}
		docs[i] = doc
	}
	checkAll := func(b *testing.B, errs []error) {
		for _, e := range errs {
			if e != nil {
				b.Fatal(e)
			}
		}
	}
	for workers := 1; workers <= runtime.GOMAXPROCS(0); workers *= 2 {
		b.Run(fmt.Sprintf("tree-cast/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				errs, _ := caster.ValidateAll(docs, workers)
				checkAll(b, errs)
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
		})
		b.Run(fmt.Sprintf("stream-cast/workers=%d", workers), func(b *testing.B) {
			rs := make([]io.Reader, batch)
			for i := 0; i < b.N; i++ {
				for j := range rs {
					rs[j] = bytes.NewReader(raw[j])
				}
				errs, _ := streamCaster.ValidateAll(rs, workers)
				checkAll(b, errs)
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
		})
	}
}

// --- Subsumption scaling -------------------------------------------------

// BenchmarkRelationsScaling grows random schema pairs and measures the
// R_sub/R_dis computation, supporting the paper's claim that its subtyping
// is polynomial in schema size (contrast with the exponential regular-tree
// subtyping of XDuce, §2).
func BenchmarkRelationsScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(606))
	for _, types := range []int{8, 16, 32, 64} {
		labels := make([]string, types)
		for i := range labels {
			labels[i] = fmt.Sprintf("l%02d", i)
		}
		alpha := fa.NewAlphabet()
		opts := wgen.RandomSchemaOptions{Labels: labels, SimpleTypes: types / 4, ComplexTypes: types - types/4}
		src := wgen.RandomSchema(rng, alpha, opts)
		dst := wgen.MutateSchema(rng, src, labels)
		b.Run(fmt.Sprintf("types=%d", types), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				subsume.MustCompute(src, dst)
			}
		})
	}
}
