// Package hotpair attributes cast cost to (source, target) schema pairs
// under a hard cardinality bound. The paper's economy — subtrees skipped
// via subsumption instead of revalidated — varies wildly per pair, so a
// fleet operator needs per-pair seconds and work-saved ratios; but schema
// pairs are client-controlled, and labeling a Prometheus family with an
// unbounded pair key is a classic series-explosion foot-gun.
//
// The tracker therefore keeps exact stats for at most K pairs plus one
// `other` overflow bucket, so a scrape carries at most K+1 label sets no
// matter how many distinct pairs flow. Admission is deterministic
// weighted-eviction: a new pair enters a full table only by carrying more
// observed seconds than the current minimum, whose totals are folded into
// `other` (attribution degrades gracefully — totals are conserved, only
// the per-pair split coarsens). Ties keep the incumbent, and among equal
// minima the lexicographically greatest key is the victim, so replaying
// the same observation sequence always yields the same table.
package hotpair

import (
	"sort"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/work"
)

// Stats accumulates one attribution bucket (a tracked pair, or `other`):
// its casts, their wall-clock seconds and their work record.
type Stats struct {
	Casts   int64   `json:"casts"`
	Seconds float64 `json:"seconds"`
	work.Counters
}

func (s *Stats) add(o Stats) {
	s.Casts += o.Casts
	s.Seconds += o.Seconds
	s.Counters.Add(o.Counters)
}

// Entry is one tracked pair with its identity and accumulated stats.
type Entry struct {
	// Key is the short content-hash of the pair (stable across nodes and
	// schema renames); the metric label.
	Key string `json:"key"`
	// Src and Dst are the schema ids seen on this pair's first tracked
	// observation — a human hint, not an identity (ids may alias hashes).
	Src string `json:"src"`
	Dst string `json:"dst"`
	Stats
	WorkSaved float64 `json:"workSavedRatio"`
}

// Snapshot is the ranked view served by GET /debug/hotpairs.
type Snapshot struct {
	K         int     `json:"k"`
	Tracked   []Entry `json:"tracked"` // by seconds, descending
	Other     Stats   `json:"other"`
	Evictions int64   `json:"evictions"`
}

// Tracker is the bounded attribution table. Methods are safe for
// concurrent use and on a nil receiver (a nil tracker records nothing).
type Tracker struct {
	k int

	mu        sync.Mutex
	tracked   map[string]*Entry
	other     Stats
	evictions int64
}

// New returns a tracker bounded to k pairs; k <= 0 returns nil (disabled).
func New(k int) *Tracker {
	if k <= 0 {
		return nil
	}
	return &Tracker{k: k, tracked: make(map[string]*Entry, k)}
}

// Observe folds one cast's cost into the pair's bucket. Called once per
// cast/batch request — never per element — so the table mutex is off every
// hot loop.
func (t *Tracker) Observe(key, src, dst string, st Stats) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.tracked[key]; ok {
		e.Stats.add(st)
		return
	}
	if len(t.tracked) < t.k {
		t.tracked[key] = &Entry{Key: key, Src: src, Dst: dst, Stats: st}
		return
	}
	// Full table: the incoming observation competes against the coldest
	// incumbent on observed seconds. Strictly greater wins — ties keep the
	// incumbent — so a stream of one-shot pairs cannot churn the table.
	victim := t.coldest()
	if st.Seconds > victim.Seconds {
		t.other.add(victim.Stats)
		t.evictions++
		delete(t.tracked, victim.Key)
		t.tracked[key] = &Entry{Key: key, Src: src, Dst: dst, Stats: st}
		return
	}
	t.other.add(st)
}

// coldest picks the eviction candidate: minimum seconds, ties broken
// toward the lexicographically greatest key so the choice is a pure
// function of the table's contents.
func (t *Tracker) coldest() *Entry {
	var victim *Entry
	for _, e := range t.tracked {
		switch {
		case victim == nil,
			e.Seconds < victim.Seconds,
			e.Seconds == victim.Seconds && e.Key > victim.Key:
			victim = e
		}
	}
	return victim
}

// Snapshot returns the ranked table. Nil-safe (zero-valued when disabled).
func (t *Tracker) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := Snapshot{K: t.k, Other: t.other, Evictions: t.evictions,
		Tracked: make([]Entry, 0, len(t.tracked))}
	for _, e := range t.tracked {
		c := *e
		c.WorkSaved = c.WorkSavedRatio()
		out.Tracked = append(out.Tracked, c)
	}
	sort.Slice(out.Tracked, func(i, j int) bool {
		a, b := out.Tracked[i], out.Tracked[j]
		if a.Seconds != b.Seconds {
			return a.Seconds > b.Seconds
		}
		return a.Key < b.Key
	})
	return out
}

// Register exposes the tracker on reg as scrape-time sample families, each
// bounded to K+1 label sets (`pair` = short hash, plus `other`). The
// `other` row renders even at zero so the families exist before traffic.
func (t *Tracker) Register(reg *telemetry.Registry) {
	seconds := func() []telemetry.Sample { return t.samples(func(s Stats) float64 { return s.Seconds }) }
	casts := func() []telemetry.Sample { return t.samples(func(s Stats) float64 { return float64(s.Casts) }) }
	saved := func() []telemetry.Sample {
		return t.samples(func(s Stats) float64 { return s.WorkSavedRatio() })
	}
	reg.CounterSamples("cast_pair_seconds_total",
		"Cast wall-clock seconds attributed per schema pair (top-K by cost; the rest fold into pair=\"other\").",
		[]string{"pair"}, seconds)
	reg.CounterSamples("cast_pair_casts_total",
		"Casts attributed per schema pair (top-K; overflow in pair=\"other\").",
		[]string{"pair"}, casts)
	reg.GaugeSamples("cast_pair_work_saved_ratio",
		"Fraction of elements skimmed instead of validated, per tracked schema pair.",
		[]string{"pair"}, saved)
	reg.GaugeFunc("cast_pair_tracked",
		"Schema pairs currently holding a tracked attribution slot.",
		func() float64 {
			if t == nil {
				return 0
			}
			t.mu.Lock()
			defer t.mu.Unlock()
			return float64(len(t.tracked))
		})
	reg.CounterFunc("cast_pair_evictions_total",
		"Tracked pairs displaced into the other bucket by hotter arrivals.",
		func() float64 {
			if t == nil {
				return 0
			}
			t.mu.Lock()
			defer t.mu.Unlock()
			return float64(t.evictions)
		})
}

func (t *Tracker) samples(value func(Stats) float64) []telemetry.Sample {
	if t == nil {
		return []telemetry.Sample{{Labels: []string{"other"}, Value: 0}}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]telemetry.Sample, 0, len(t.tracked)+1)
	for _, e := range t.tracked {
		out = append(out, telemetry.Sample{Labels: []string{e.Key}, Value: value(e.Stats)})
	}
	out = append(out, telemetry.Sample{Labels: []string{"other"}, Value: value(t.other)})
	return out
}
