package hotpair

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/work"
)

func obs(seconds float64, casts, visited, skimmed int64) Stats {
	return Stats{Casts: casts, Seconds: seconds,
		Counters: work.Counters{ElementsVisited: visited, ElementsSkimmed: skimmed}}
}

func TestTrackerAccumulates(t *testing.T) {
	tr := New(4)
	tr.Observe("aa11", "v1", "v2", obs(0.5, 1, 90, 10))
	tr.Observe("aa11", "v1", "v2", obs(1.5, 2, 10, 90))
	snap := tr.Snapshot()
	if len(snap.Tracked) != 1 {
		t.Fatalf("tracked = %d, want 1", len(snap.Tracked))
	}
	e := snap.Tracked[0]
	if e.Seconds != 2 || e.Casts != 3 || e.ElementsVisited != 100 || e.ElementsSkimmed != 100 {
		t.Fatalf("bad accumulation: %+v", e)
	}
	if e.WorkSaved != 0.5 {
		t.Fatalf("work saved = %v, want 0.5", e.WorkSaved)
	}
}

func TestEvictionDeterminism(t *testing.T) {
	// Fill K=2, then compete. The coldest incumbent loses only to a
	// strictly hotter arrival; ties keep the incumbent.
	tr := New(2)
	tr.Observe("cold", "a", "b", obs(1, 1, 0, 0))
	tr.Observe("hot", "a", "b", obs(10, 1, 0, 0))

	tr.Observe("tie", "a", "b", obs(1, 1, 0, 0)) // equal to the minimum: folded into other
	snap := tr.Snapshot()
	if keys(snap) != "hot,cold" {
		t.Fatalf("tie must keep incumbents, got %s", keys(snap))
	}
	if snap.Other.Casts != 1 || snap.Other.Seconds != 1 {
		t.Fatalf("tie observation not folded into other: %+v", snap.Other)
	}

	tr.Observe("warm", "a", "b", obs(2, 1, 0, 0)) // strictly hotter: evicts "cold"
	snap = tr.Snapshot()
	if keys(snap) != "hot,warm" {
		t.Fatalf("hotter arrival must evict the minimum, got %s", keys(snap))
	}
	if snap.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", snap.Evictions)
	}
	// The evicted pair's totals moved into other: conservation holds.
	if snap.Other.Seconds != 1+1 || snap.Other.Casts != 2 {
		t.Fatalf("eviction did not fold the victim: %+v", snap.Other)
	}
}

func TestEvictionTieBreakIsLexicographic(t *testing.T) {
	// Two incumbents at the same minimum: the lexicographically greatest
	// key is the victim, deterministically, over many map orderings.
	for i := 0; i < 50; i++ {
		tr := New(2)
		tr.Observe("bbbb", "a", "b", obs(1, 1, 0, 0))
		tr.Observe("aaaa", "a", "b", obs(1, 1, 0, 0))
		tr.Observe("newcomer", "a", "b", obs(5, 1, 0, 0))
		if got := keys(tr.Snapshot()); got != "newcomer,aaaa" {
			t.Fatalf("iteration %d: survivors = %s, want newcomer,aaaa", i, got)
		}
	}
}

// TestTotalsConservedUnderChurn replays a random workload and checks the
// invariant the guard promises: tracked + other always equals everything
// observed, however the table churned.
func TestTotalsConservedUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := New(8)
	var wantCasts int64
	var wantSeconds float64
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("k%03d", rng.Intn(200))
		s := obs(float64(rng.Intn(100))/10, 1, int64(rng.Intn(50)), int64(rng.Intn(50)))
		wantCasts++
		wantSeconds += s.Seconds
		tr.Observe(key, "s", "d", s)
	}
	snap := tr.Snapshot()
	gotCasts := snap.Other.Casts
	gotSeconds := snap.Other.Seconds
	for _, e := range snap.Tracked {
		gotCasts += e.Casts
		gotSeconds += e.Seconds
	}
	if gotCasts != wantCasts {
		t.Fatalf("casts not conserved: %d, want %d", gotCasts, wantCasts)
	}
	if diff := gotSeconds - wantSeconds; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("seconds not conserved: %v, want %v", gotSeconds, wantSeconds)
	}
}

// TestScrapeCardinalityBound drives 10x K distinct pairs through the
// tracker and asserts the exported families never exceed K+1 label sets.
func TestScrapeCardinalityBound(t *testing.T) {
	const k = 16
	tr := New(k)
	reg := telemetry.NewRegistry()
	tr.Register(reg)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10*k; i++ {
		key := fmt.Sprintf("pair%04x", i)
		tr.Observe(key, "s", "d", obs(rng.Float64()*5, 1, 10, 10))
		// Scrape mid-churn too: the bound must hold at every instant, not
		// just at the end.
		if i%37 == 0 {
			assertCardinality(t, reg, k)
		}
	}
	assertCardinality(t, reg, k)
}

func assertCardinality(t *testing.T, reg *telemetry.Registry, k int) {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"cast_pair_seconds_total", "cast_pair_casts_total", "cast_pair_work_saved_ratio"} {
		re := regexp.MustCompile(`(?m)^` + family + `\{pair="([^"]*)"\} `)
		matches := re.FindAllStringSubmatch(b.String(), -1)
		if len(matches) > k+1 {
			t.Fatalf("%s exposes %d label sets, bound is K+1 = %d", family, len(matches), k+1)
		}
		hasOther := false
		for _, m := range matches {
			if m[1] == "other" {
				hasOther = true
			}
		}
		if !hasOther {
			t.Fatalf("%s is missing the pair=\"other\" overflow row", family)
		}
	}
}

// TestZeroTrafficScrape: the families and their other row exist before any
// observation (the acceptance criterion's "at zero without traffic").
func TestZeroTrafficScrape(t *testing.T) {
	reg := telemetry.NewRegistry()
	New(4).Register(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"cast_pair_seconds_total{pair=\"other\"} 0\n",
		"cast_pair_casts_total{pair=\"other\"} 0\n",
		"cast_pair_work_saved_ratio{pair=\"other\"} 0\n",
		"cast_pair_tracked 0\n",
		"cast_pair_evictions_total 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("zero-traffic scrape missing %q", want)
		}
	}
}

func TestNilTracker(t *testing.T) {
	var tr *Tracker
	tr.Observe("x", "a", "b", obs(1, 1, 0, 0))
	if snap := tr.Snapshot(); len(snap.Tracked) != 0 {
		t.Fatalf("nil tracker tracked something: %+v", snap)
	}
	if New(0) != nil {
		t.Fatal("New(0) must return the disabled tracker")
	}
	// A disabled tracker still registers well-formed zero families.
	reg := telemetry.NewRegistry()
	tr.Register(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "cast_pair_seconds_total{pair=\"other\"} 0") {
		t.Error("disabled tracker missing zero other row")
	}
}

func keys(s Snapshot) string {
	parts := make([]string, len(s.Tracked))
	for i, e := range s.Tracked {
		parts[i] = e.Key
	}
	return strings.Join(parts, ",")
}
