// Command xmlcast validates an XML document against a target schema using
// knowledge of its conformance to a source schema (schema cast validation,
// EDBT'04). With only -target it performs a plain full validation.
//
// Usage:
//
//	xmlcast -target order-v2.xsd order.xml             # full validation
//	xmlcast -source v1.xsd -target v2.xsd order.xml    # schema cast
//	xmlcast -source v1.dtd -target v2.dtd -indexed order.xml
//	xmlcast -source v1.xsd -target v2.xsd -stream big.xml   # O(depth) memory
//
// Schema format is inferred from the file extension (.xsd / .dtd) or, for
// other extensions, sniffed from the content. With -stats the work counters
// (nodes visited, automaton steps, subtrees skipped) are printed to stderr.
// A schema outside the loader's subset, identity constraints included, is
// a usage error (exit 2), never a verdict.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	revalidate "repro"
)

// Exit codes are a stable scripting contract (the castd smoke tests and
// shell pipelines branch on them): 0 the document is valid, 1 the
// document is invalid under the target schema, 2 usage or I/O error.
// Verdicts go to stdout; diagnostics and INVALID reasons go to stderr.
const (
	exitValid   = 0
	exitInvalid = 1
	exitUsage   = 2
)

func main() {
	var (
		sourcePath = flag.String("source", "", "source schema (the one the document is known to satisfy)")
		targetPath = flag.String("target", "", "target schema (required)")
		dtdRoot    = flag.String("dtd-root", "", "root element for DTD schemas without a DOCTYPE")
		indexed    = flag.Bool("indexed", false, "use the DTD label-index optimization (§3.4)")
		streaming  = flag.Bool("stream", false, "validate from the token stream without building a tree (O(depth) memory)")
		stats      = flag.Bool("stats", false, "print work statistics to stderr")
		explain    = flag.Bool("explain", false, "print the decision trace (skips, rejects, descends) to stderr; implies a schema cast")
		maxDepth   = flag.Int("max-depth", 0, "streaming: reject documents nested deeper than this (0 = unlimited)")
		maxElems   = flag.Int64("max-elements", 0, "streaming: reject documents with more elements than this (0 = unlimited)")
		timeout    = flag.Duration("timeout", 0, "streaming: abort validation after this duration (0 = none)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: xmlcast [-source schema] -target schema [flags] document.xml\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *targetPath == "" || flag.NArg() != 1 {
		flag.Usage()
		os.Exit(exitUsage)
	}

	u := revalidate.NewUniverse()
	target, err := loadSchema(u, *targetPath, *dtdRoot)
	exitOn(err)
	docFile, err := os.Open(flag.Arg(0))
	exitOn(err)
	defer docFile.Close()

	if *streaming {
		lim := revalidate.Limits{MaxDepth: *maxDepth, MaxElements: *maxElems}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		runStreaming(ctx, u, target, *sourcePath, *dtdRoot, docFile, lim, *stats, *explain)
		return
	}
	doc, err := revalidate.ParseDocument(docFile)
	exitOn(err)

	if *sourcePath == "" {
		st, err := target.ValidateFull(doc)
		report("full validation", st, err, *stats)
		return
	}
	source, err := loadSchema(u, *sourcePath, *dtdRoot)
	exitOn(err)
	caster, err := revalidate.NewCaster(source, target)
	exitOn(err)

	if *indexed {
		idx := revalidate.BuildIndex(doc)
		st, err := caster.ValidateIndexedStats(doc, idx)
		report("indexed schema cast", st, err, *stats)
		return
	}
	if *explain {
		st, trace, err := caster.ValidateTraced(doc)
		printTrace(trace)
		fmt.Fprintf(os.Stderr, "explain: %d skips, %d rejects; visited %d of %d nodes (work saved %.1f%%), scanned %d symbols (skipped %d)\n",
			st.SubsumedSkips, st.DisjointRejects,
			st.NodesVisited(), doc.NodeCount(), 100*(1-float64(st.NodesVisited())/float64(doc.NodeCount())),
			st.AutomatonSteps, st.SymbolsSkipped)
		report("schema cast", st, err, *stats)
		return
	}
	st, err := caster.ValidateStats(doc)
	report("schema cast", st, err, *stats)
}

// printTrace renders the decision trace as an indented tree, one line per
// decision, to stderr.
func printTrace(trace []revalidate.TraceEvent) {
	for _, ev := range trace {
		types := ""
		if ev.SrcType != "" || ev.DstType != "" {
			types = fmt.Sprintf(" (%s → %s)", ev.SrcType, ev.DstType)
		}
		fmt.Fprintf(os.Stderr, "%s%-7s %s [%s]%s: %s\n",
			strings.Repeat("  ", ev.Depth), ev.Action, ev.Path, ev.Dewey, types, ev.Detail)
	}
}

// runStreaming validates straight off the token stream: full validation
// without -source, streaming schema cast with it. Both modes run governed:
// the -max-depth/-max-elements/-timeout flags bound what one document can
// cost, matching the daemon's posture.
func runStreaming(ctx context.Context, u *revalidate.Universe, target *revalidate.Schema, sourcePath, dtdRoot string, r *os.File, lim revalidate.Limits, stats, explain bool) {
	if sourcePath == "" {
		st, err := target.ValidateStreamContext(ctx, r, lim)
		if stats {
			fmt.Fprintf(os.Stderr, "streaming full validation: visited=%d steps=%d values=%d\n",
				st.ElementsVisited, st.AutomatonSteps, st.ValuesChecked)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "INVALID: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("valid")
		return
	}
	source, err := loadSchema(u, sourcePath, dtdRoot)
	exitOn(err)
	sc, err := revalidate.NewStreamCaster(source, target)
	exitOn(err)
	var st revalidate.StreamStats
	if explain {
		var trace []revalidate.TraceEvent
		st, trace, err = sc.ValidateTracedContext(ctx, r, lim)
		printTrace(trace)
		fmt.Fprintf(os.Stderr, "explain: %d skips, %d rejects; skimmed %d of %d elements (work saved %.1f%%), scanned %d symbols (skipped %d)\n",
			st.SubsumedSkips, st.DisjointRejects,
			st.ElementsSkimmed, st.ElementsVisited+st.ElementsSkimmed, 100*st.WorkSavedRatio(),
			st.AutomatonSteps, st.SymbolsSkipped)
	} else {
		st, err = sc.ValidateContext(ctx, r, lim)
	}
	if stats {
		fmt.Fprintf(os.Stderr, "streaming schema cast: visited=%d skimmed=%d steps=%d values=%d\n",
			st.ElementsVisited, st.ElementsSkimmed, st.AutomatonSteps, st.ValuesChecked)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "INVALID: %v\n", err)
		os.Exit(exitInvalid)
	}
	fmt.Println("valid")
}

func loadSchema(u *revalidate.Universe, path, dtdRoot string) (*revalidate.Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	text := string(data)
	isDTD := strings.HasSuffix(path, ".dtd") ||
		(!strings.HasSuffix(path, ".xsd") && strings.Contains(text, "<!ELEMENT"))
	if isDTD {
		return u.LoadDTD(text, dtdRoot)
	}
	return u.LoadXSDString(text)
}

func report(mode string, st revalidate.Stats, err error, withStats bool) {
	if withStats {
		fmt.Fprintf(os.Stderr, "%s: nodes=%d (elements=%d text=%d) automaton-steps=%d skips=%d full-validations=%d\n",
			mode, st.NodesVisited(), st.ElementsVisited, st.TextNodesVisited,
			st.AutomatonSteps, st.SubsumedSkips, st.FullValidations)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "INVALID: %v\n", err)
		os.Exit(exitInvalid)
	}
	fmt.Println("valid")
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmlcast:", err)
		os.Exit(exitUsage)
	}
}
