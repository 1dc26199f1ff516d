// Command castbench prints the tables and figures of the paper's
// evaluation section (EDBT'04 §6):
//
//	-table1   Table 1: abstract-schema view of POType1 (Figure 1a)
//	-table2   Table 2: input document file sizes, 2..1000 items
//	-exp1     Figure 3a: Experiment 1 validation times (billTo optional→required)
//	-exp2     Figure 3b: Experiment 2 validation times (maxExclusive 200→100)
//	-table3   Table 3: nodes visited during Experiment 2
//	-all      everything (default when no flag is given)
//
// Wall-clock numbers are machine-dependent; the shapes (constant vs.
// linear, cast vs. baseline ratios) are what reproduce the paper. The
// machine-independent counters behind these tables are pinned exactly by
// TestLedger (ledger_test.go); the extensions beyond the paper (edits,
// streaming, preprocessing, parallel batches, cold vs. warm start) are
// benchmarks in bench_test.go.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/baseline"
	"repro/internal/cast"
	"repro/internal/wgen"
)

var itemCounts = wgen.PaperItemCounts

func main() {
	var (
		table1 = flag.Bool("table1", false, "Table 1: abstract schema for POType1")
		table2 = flag.Bool("table2", false, "Table 2: input file sizes")
		exp1   = flag.Bool("exp1", false, "Figure 3a: Experiment 1 times")
		exp2   = flag.Bool("exp2", false, "Figure 3b: Experiment 2 times")
		table3 = flag.Bool("table3", false, "Table 3: nodes visited in Experiment 2")
		all    = flag.Bool("all", false, "run everything")
	)
	flag.Parse()
	if *all || !(*table1 || *table2 || *exp1 || *exp2 || *table3) {
		*table1, *table2, *exp1, *exp2, *table3 = true, true, true, true, true
	}

	ps := wgen.NewPaperSchemas()
	if *table1 {
		runTable1(ps)
	}
	if *table2 {
		runTable2()
	}
	if *exp1 {
		runExperiment1(ps)
	}
	if *exp2 {
		runExperiment2(ps)
	}
	if *table3 {
		runTable3(ps)
	}
}

func runTable1(ps *wgen.PaperSchemas) {
	fmt.Println("== Table 1: abstract XML Schema type for POType1 (Figure 1a) ==")
	fmt.Print(ps.Source1.String())
	fmt.Println()
}

func runTable2() {
	fmt.Println("== Table 2: file sizes for input documents ==")
	fmt.Printf("%12s %14s\n", "# Item Nodes", "Size (Bytes)")
	for _, n := range itemCounts {
		doc := wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, Seed: 2004})
		fmt.Printf("%12d %14d\n", n, len(wgen.POXMLBytes(doc)))
	}
	fmt.Println()
}

// timeIt reports the per-validation wall time of fn, amortized over enough
// iterations to exceed ~40ms.
func timeIt(fn func()) time.Duration {
	fn() // warm up
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		elapsed := time.Since(start)
		if elapsed > 40*time.Millisecond || iters > 1<<20 {
			return elapsed / time.Duration(iters)
		}
		iters *= 4
	}
}

func runExperiment1(ps *wgen.PaperSchemas) {
	fmt.Println("== Figure 3a / Experiment 1: validate Fig-1a documents against Fig-2 ==")
	fmt.Println("   (billTo optional in source, required in target; documents contain billTo)")
	engine := cast.MustNew(ps.Source1, ps.Target, cast.Options{})
	base := baseline.New(ps.Target)
	fmt.Printf("%8s %16s %16s %10s\n", "items", "schema-cast", "full (Xerces-style)", "speedup")
	for _, n := range itemCounts {
		doc := wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, Seed: 2004})
		castTime := timeIt(func() {
			if _, err := engine.Validate(doc); err != nil {
				fatal(err)
			}
		})
		fullTime := timeIt(func() {
			if _, err := base.Validate(doc); err != nil {
				fatal(err)
			}
		})
		fmt.Printf("%8d %13dns %16dns %9.1fx\n", n, castTime.Nanoseconds(), fullTime.Nanoseconds(),
			float64(fullTime)/float64(castTime))
	}
	fmt.Println("   expected shape: cast constant in item count, full linear")
	fmt.Println()
}

func runExperiment2(ps *wgen.PaperSchemas) {
	fmt.Println("== Figure 3b / Experiment 2: validate maxExclusive=200 documents against maxExclusive=100 ==")
	fmt.Println("   (every quantity must be checked; cast skips the other item children)")
	engine := cast.MustNew(ps.Source2, ps.Target, cast.Options{})
	base := baseline.New(ps.Target)
	fmt.Printf("%8s %16s %16s %10s\n", "items", "schema-cast", "full (Xerces-style)", "speedup")
	for _, n := range itemCounts {
		doc := wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, MaxQuantity: 99, Seed: 2004})
		castTime := timeIt(func() {
			if _, err := engine.Validate(doc); err != nil {
				fatal(err)
			}
		})
		fullTime := timeIt(func() {
			if _, err := base.Validate(doc); err != nil {
				fatal(err)
			}
		})
		fmt.Printf("%8d %13dns %16dns %9.2fx\n", n, castTime.Nanoseconds(), fullTime.Nanoseconds(),
			float64(fullTime)/float64(castTime))
	}
	fmt.Println("   expected shape: both linear, cast faster by a constant factor")
	fmt.Println("   (~1.4-1.5x here; the paper's modified Xerces reported ~1.3x)")
	fmt.Println()
}

func runTable3(ps *wgen.PaperSchemas) {
	fmt.Println("== Table 3: number of nodes traversed during validation in Experiment 2 ==")
	engine := cast.MustNew(ps.Source2, ps.Target, cast.Options{})
	base := baseline.New(ps.Target)
	fmt.Printf("%12s %14s %14s %8s\n", "# Item Nodes", "Schema Cast", "Full", "ratio")
	for _, n := range itemCounts {
		doc := wgen.PODocument(wgen.PODocOptions{Items: n, IncludeBillTo: true, MaxQuantity: 99, Seed: 2004})
		cs, err := engine.Validate(doc)
		if err != nil {
			fatal(err)
		}
		bs, err := base.Validate(doc)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%12d %14d %14d %7.0f%%\n", n, cs.NodesVisited(), bs.NodesVisited(),
			100*float64(cs.NodesVisited())/float64(bs.NodesVisited()))
	}
	fmt.Println("   expected shape: cast visits ~70% of the nodes (paper: ~80% on its tree layout)")
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "castbench:", err)
	os.Exit(1)
}
