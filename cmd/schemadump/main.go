// Command schemadump prints the abstract-XML-schema view of an XSD or DTD
// — the (Σ, T, ρ, R) tables of EDBT'04 (its Table 1 renders the POType1
// row of Figure 1a) — and optionally the compiled content-model DFAs.
//
// Usage:
//
//	schemadump schema.xsd
//	schemadump -dfa POType1 schema.xsd
//	schemadump -relations other.xsd schema.xsd   # R_sub / R_dis vs. another schema
//	schemadump -artifact pair.xca                # inspect a compiled pair artifact
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/artifact"
	"repro/internal/dtd"
	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/subsume"
	"repro/internal/xsd"
)

func main() {
	var (
		dfaType      = flag.String("dfa", "", "also dump the compiled DFA of this type")
		relations    = flag.String("relations", "", "compute R_sub/R_dis against this second schema")
		dtdRoot      = flag.String("dtd-root", "", "root element for DTD schemas without a DOCTYPE")
		artifactMode = flag.Bool("artifact", false, "treat the argument as a compiled pair artifact (.xca) and print its structure")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: schemadump [flags] schema.(xsd|dtd)\n")
		fmt.Fprintf(os.Stderr, "       schemadump -artifact blob.xca\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *artifactMode {
		exitOn(dumpArtifact(flag.Arg(0)))
		return
	}

	alpha := fa.NewAlphabet()
	s, err := load(flag.Arg(0), alpha, *dtdRoot)
	exitOn(err)

	fmt.Print(s.String())
	fmt.Printf("DTD-shaped: %v\n", s.IsDTD())

	if *dfaType != "" {
		id := s.TypeByName(*dfaType)
		if id == schema.NoType {
			exitOn(fmt.Errorf("type %q not found", *dfaType))
		}
		t := s.TypeOf(id)
		if t.Simple {
			fmt.Printf("\n%s is a simple type (%s); no content DFA\n", t.Name, t.Value)
		} else {
			fmt.Printf("\ncontent-model DFA of %s:\n%s", t.Name, t.DFA.Dump(alpha.Names()))
		}
	}

	if *relations != "" {
		other, err := load(*relations, alpha, *dtdRoot)
		exitOn(err)
		rel, err := subsume.Compute(s, other)
		exitOn(err)
		fmt.Printf("\nrelations %s (source) vs %s (target):\n", flag.Arg(0), *relations)
		for _, a := range s.Types {
			var subs, diss []string
			for _, b := range other.Types {
				if rel.Subsumed(a.ID, b.ID) {
					subs = append(subs, b.Name)
				}
				if rel.Disjoint(a.ID, b.ID) {
					diss = append(diss, b.Name)
				}
			}
			fmt.Printf("  %-16s ≤ {%s}\n", a.Name, strings.Join(subs, ", "))
			fmt.Printf("  %-16s ⊘ {%s}\n", a.Name, strings.Join(diss, ", "))
		}
		st := rel.Stats()
		fmt.Printf("  %d subsumed pairs, %d disjoint pairs over %d×%d types\n",
			st.SubsumedPairs, st.DisjointPairs, st.SrcTypes, st.DstTypes)
	}
}

// dumpArtifact prints the structural summary of one compiled pair blob:
// header and addressing, both schemas, relation counts, the per-type-pair
// casters and the section byte budget. It never re-compiles the embedded
// schema texts, so it works on blobs a current build would reject as stale.
func dumpArtifact(path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	info, err := artifact.Inspect(blob)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("artifact %s\n", path)
	fmt.Printf("  format version %d, %d bytes (%d payload), crc32 %08x\n",
		info.Version, info.TotalBytes, info.PayloadBytes, info.CRC32)
	fmt.Printf("  key %s\n", info.Key)
	for _, s := range []struct {
		label string
		sum   artifact.SchemaSummary
	}{{"source", info.Src}, {"target", info.Dst}} {
		fmt.Printf("  %s: %s", s.label, s.sum.Format)
		if s.sum.DTDRoot != "" {
			fmt.Printf(" (root %s)", s.sum.DTDRoot)
		}
		fmt.Printf(", %d text bytes, hash %s\n", s.sum.TextBytes, s.sum.Hash)
	}
	fmt.Printf("  alphabet: %d symbols\n", info.AlphabetSize)
	fmt.Printf("  relations: %d×%d types, %d subsumed pairs, %d disjoint pairs\n",
		info.SrcTypes, info.DstTypes, info.SubsumedPairs, info.DisjointPairs)
	fmt.Printf("  casters: %d (product IDA states %d)\n", len(info.Casters), info.ProductStates)
	for _, c := range info.Casters {
		fmt.Printf("    src type %d → dst type %d: %d product states, %d target states\n",
			c.SrcType, c.DstType, c.ProductStates, c.TargetStates)
	}
	fmt.Printf("  sections:\n")
	for _, s := range info.Sections {
		fmt.Printf("    %-12s %d bytes\n", s.Name, s.Bytes)
	}
	fmt.Printf("  report: %s\n", info.Report)
	return nil
}

func load(path string, alpha *fa.Alphabet, dtdRoot string) (*schema.Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	text := string(data)
	if strings.HasSuffix(path, ".dtd") ||
		(!strings.HasSuffix(path, ".xsd") && strings.Contains(text, "<!ELEMENT")) {
		return dtd.Parse(text, dtd.Options{Alpha: alpha, Root: dtdRoot})
	}
	return xsd.ParseString(text, xsd.Options{Alpha: alpha})
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "schemadump:", err)
		os.Exit(2)
	}
}
