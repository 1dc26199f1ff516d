// Under -race, sync.Pool drops a share of its Puts at random, so the
// pooled walker allocates and the counts below do not hold.

//go:build !race

package stream

import (
	"bytes"
	"testing"

	"repro/internal/wgen"
)

// TestStreamAllocs pins the allocations of one streaming validation of the
// 500-item purchase order. The walker's frames, text buffers and scanner
// are pooled, so what remains per document is constant. Before facet
// checks stopped leaking their value, the counts were 2 (Exp-1 cast), 455
// (Exp-2 cast) and 1,467 (full validation).
func TestStreamAllocs(t *testing.T) {
	const maxAllocs = 2
	ps := wgen.NewPaperSchemas()
	exp1, err := NewCaster(ps.Source1, ps.Target)
	if err != nil {
		t.Fatal(err)
	}
	exp2, err := NewCaster(ps.Source2, ps.Target)
	if err != nil {
		t.Fatal(err)
	}
	full := NewValidator(ps.Target)
	data := po500()
	for _, tc := range []struct {
		name     string
		validate func() (Stats, error)
	}{
		{"exp1-cast", func() (Stats, error) { return exp1.Validate(bytes.NewReader(data)) }},
		{"exp2-cast", func() (Stats, error) { return exp2.Validate(bytes.NewReader(data)) }},
		{"full", func() (Stats, error) { return full.Validate(bytes.NewReader(data)) }},
	} {
		if _, err := tc.validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := tc.validate(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Errorf("%s: %v allocs per document, want ≤ %d", tc.name, allocs, maxAllocs)
		}
	}
}
