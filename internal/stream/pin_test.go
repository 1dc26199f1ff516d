package stream

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/wgen"
)

// po500 is the 500-item purchase order the streaming benchmarks run on.
func po500() []byte {
	return wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: 500, IncludeBillTo: true, Seed: 11}))
}

// TestFullValidationStatsPinned pins streaming full validation's verdicts
// and statistics on the differential seed corpus and the 500-item purchase
// order. The values were taken from the dedicated full-validation walker
// that preceded running full validation as a cast with no source schema;
// the work counters must not move.
func TestFullValidationStatsPinned(t *testing.T) {
	seedDoc := Stats{ElementsVisited: 36, AutomatonSteps: 35, ValuesChecked: 27, MaxDepth: 3}
	want := map[int]Stats{0: seedDoc, 3: seedDoc, 4: seedDoc, 5: seedDoc, 6: seedDoc}
	v := NewValidator(wgen.NewPaperSchemas().Target)
	for i, doc := range seedDocs() {
		st, err := v.Validate(strings.NewReader(doc))
		w, accept := want[i]
		if (err == nil) != accept {
			t.Errorf("seed %d: err=%v, want accept=%v", i, err, accept)
			continue
		}
		if accept && st != w {
			t.Errorf("seed %d: stats %+v, want %+v", i, st, w)
		}
	}
	st, err := v.Validate(bytes.NewReader(po500()))
	if err != nil {
		t.Fatal(err)
	}
	if w := (Stats{ElementsVisited: 2016, AutomatonSteps: 2015, ValuesChecked: 1512, MaxDepth: 3}); st != w {
		t.Fatalf("500-item order: stats %+v, want %+v", st, w)
	}
}
