package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the `le` semantics: an observation
// equal to a bound lands in that bound's bucket, anything above the last
// bound lands in +Inf, and sum/count track every observation.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 2.0001, 5, 7, 100} {
		h.Observe(v)
	}
	got := h.BucketCounts()
	want := []int64{2, 2, 2, 2} // (≤1): 0.5,1  (≤2): 1.5,2  (≤5): 2.0001,5  (+Inf): 7,100
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("Count = %d, want 8", h.Count())
	}
	if want := 0.5 + 1 + 1.5 + 2 + 2.0001 + 5 + 7 + 100; math.Abs(h.Sum()-want) > 1e-9 {
		t.Fatalf("Sum = %v, want %v", h.Sum(), want)
	}
}

// TestHistogramObserveAllocs pins the latency path's allocations: a plain
// observation is three atomic updates, and an exemplar observation adds
// one heap-allocated Exemplar behind an atomic pointer.
func TestHistogramObserveAllocs(t *testing.T) {
	h := newHistogram(DefBuckets())
	at := time.Now()
	if allocs := testing.AllocsPerRun(100, func() { h.Observe(0.003) }); allocs != 0 {
		t.Errorf("Observe allocated %v per run, want 0", allocs)
	}
	const traceID, spanID = "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7"
	if allocs := testing.AllocsPerRun(100, func() { h.ObserveExemplar(0.003, traceID, spanID, at) }); allocs > 1 {
		t.Errorf("ObserveExemplar allocated %v per run, want ≤ 1", allocs)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds should panic")
		}
	}()
	newHistogram([]float64{1, 1})
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestConcurrentIncrements hammers one counter, gauge and histogram from
// many goroutines; totals must be exact. Run under -race in CI.
func TestConcurrentIncrements(t *testing.T) {
	const workers, perWorker = 16, 1000
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h_seconds", "", []float64{0.5})
	vec := reg.CounterVec("v_total", "", "worker")
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		odd := w%2 == 1
		go func() {
			defer wg.Done()
			// Resolve the labeled series once, then mutate lock-free.
			lane := "even"
			if odd {
				lane = "odd"
			}
			vc := vec.With(lane)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				vc.Inc()
				if odd {
					h.Observe(1) // +Inf bucket
				} else {
					h.Observe(0.25)
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Value())
	}
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	bc := h.BucketCounts()
	if bc[0] != workers/2*perWorker || bc[1] != workers/2*perWorker {
		t.Fatalf("bucket split = %v, want %d each", bc, workers/2*perWorker)
	}
	if got := vec.With("even").Value() + vec.With("odd").Value(); got != workers*perWorker {
		t.Fatalf("vec total = %d, want %d", got, workers*perWorker)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name should panic")
		}
	}()
	reg.Gauge("x_total", "")
}

func TestTraceCount(t *testing.T) {
	var tr *Trace
	tr.Record(Event{Action: ActionSkip}) // nil-safe no-op
	if tr.Count(ActionSkip) != 0 || tr.Events() != nil {
		t.Fatal("nil trace should record nothing")
	}
	tr = &Trace{}
	tr.Record(Event{Action: ActionSkip, Path: "/a"})
	tr.Record(Event{Action: ActionDescend, Path: "/"})
	tr.Record(Event{Action: ActionSkip, Path: "/b"})
	if tr.Count(ActionSkip) != 2 || tr.Count(ActionReject) != 0 || len(tr.Events()) != 3 {
		t.Fatalf("trace counts wrong: %+v", tr.Events())
	}
}
