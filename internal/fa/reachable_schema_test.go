package fa_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/castmap"
	"repro/internal/fa"
	"repro/internal/schema"
	"repro/internal/strcast"
	"repro/internal/subsume"
	"repro/internal/wgen"
)

// Every precomputed (τ, τ′) caster of the paper's schema pairs carries a
// reachable c_immed that simulates the full-product one.
func TestPaperCastersSimulateFullProduct(t *testing.T) {
	ps := wgen.NewPaperSchemas()
	schemas := map[string]*schema.Schema{"source1": ps.Source1, "target": ps.Target, "source2": ps.Source2}
	casters, smaller := 0, 0
	for sn, src := range schemas {
		for dn, dst := range schemas {
			rel, err := subsume.Compute(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			for p, c := range castmap.New(src, dst, rel, true).Snapshot() {
				full := fa.DeriveCastIDA(c.A, c.B)
				if err := fa.CheckReachableCastIDA(c.CImmed, full); err != nil {
					t.Errorf("%s → %s, types (%d,%d): %v", sn, dn, p.Src, p.Dst, err)
				}
				casters++
				if c.CImmed.D.NumStates() < full.D.NumStates() {
					smaller++
				}
			}
		}
	}
	if casters == 0 || smaller == 0 {
		t.Fatalf("%d casters, %d of them smaller than the full product: the check proves nothing", casters, smaller)
	}
	t.Logf("%d casters, %d smaller than the full product", casters, smaller)
}

// The same over every complex type pair of random schema pairs: unrelated
// schemas over one vocabulary, and a schema against a mutation of itself.
func TestRandomSchemaCastersSimulateFullProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	labels := make([]string, 6)
	for i := range labels {
		labels[i] = fmt.Sprintf("l%d", i)
	}
	opts := wgen.RandomSchemaOptions{Labels: labels, ComplexTypes: 5}
	casters, smaller := 0, 0
	for i := 0; i < 20; i++ {
		alpha := fa.NewAlphabet()
		src := wgen.RandomSchema(rng, alpha, opts)
		dst := wgen.RandomSchema(rng, alpha, opts)
		if i%2 == 1 {
			dst = wgen.MutateSchema(rng, src, labels)
		}
		src.WidenToAlphabet()
		dst.WidenToAlphabet()
		for _, a := range src.Types {
			for _, b := range dst.Types {
				if a.Simple || b.Simple {
					continue
				}
				c := strcast.New(a.DFA, b.DFA)
				full := fa.DeriveCastIDA(a.DFA, b.DFA)
				if err := fa.CheckReachableCastIDA(c.CImmed, full); err != nil {
					t.Errorf("pair %d, types %s → %s: %v", i, a.Name, b.Name, err)
				}
				casters++
				if c.CImmed.D.NumStates() < full.D.NumStates() {
					smaller++
				}
			}
		}
	}
	if smaller == 0 {
		t.Fatalf("none of %d casters is smaller than the full product: the check proves nothing", casters)
	}
	t.Logf("%d casters, %d smaller than the full product", casters, smaller)
}
