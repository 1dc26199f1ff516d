package work

import "testing"

func TestCountersAdd(t *testing.T) {
	a := Counters{ElementsVisited: 1, TextNodesVisited: 2, ElementsSkimmed: 3, AutomatonSteps: 4,
		SymbolsSkipped: 5, SubsumedSkips: 6, DisjointRejects: 7, ValuesChecked: 8,
		FullValidations: 9, ReverseScans: 10, MaxDepth: 5}
	b := a
	b.MaxDepth = 3
	a.Add(b)
	want := Counters{ElementsVisited: 2, TextNodesVisited: 4, ElementsSkimmed: 6, AutomatonSteps: 8,
		SymbolsSkipped: 10, SubsumedSkips: 12, DisjointRejects: 14, ValuesChecked: 16,
		FullValidations: 18, ReverseScans: 20, MaxDepth: 5}
	if a != want {
		t.Fatalf("Add = %v, want %v (every counter sums, MaxDepth takes the max)", a, want)
	}
	b.MaxDepth = 9
	if a.Add(b); a.MaxDepth != 9 {
		t.Fatalf("MaxDepth = %d, want 9", a.MaxDepth)
	}
	if a.NodesVisited() != 3+6 {
		t.Fatalf("NodesVisited = %d, want elements + text nodes = 9", a.NodesVisited())
	}
}

func TestWorkSavedRatio(t *testing.T) {
	if r := (Counters{}).WorkSavedRatio(); r != 0 {
		t.Fatalf("empty ratio = %v, want 0", r)
	}
	if r := (Counters{ElementsVisited: 4, ElementsSkimmed: 24}).WorkSavedRatio(); r != 24.0/28 {
		t.Fatalf("ratio = %v, want skimmed/(visited+skimmed) = 24/28", r)
	}
}
