package resilience

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestLatencyTrackerPercentile(t *testing.T) {
	var lt LatencyTracker
	if got := lt.Percentile(0.95); got != 0 {
		t.Fatalf("empty tracker percentile = %v, want 0", got)
	}
	for i := 1; i <= 100; i++ {
		lt.Observe(time.Duration(i) * time.Millisecond)
	}
	// Ring keeps the last 64 samples: 37ms..100ms.
	p50 := lt.Percentile(0.5)
	if p50 < 60*time.Millisecond || p50 > 75*time.Millisecond {
		t.Fatalf("p50 = %v, want ~68ms over [37ms,100ms]", p50)
	}
	p95 := lt.Percentile(0.95)
	if p95 < 90*time.Millisecond || p95 > 100*time.Millisecond {
		t.Fatalf("p95 = %v, want ~97ms", p95)
	}
	if p100 := lt.Percentile(1); p100 != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", p100)
	}
}

// TestLatencyTrackerPercentileNoAllocs pins the whole guard sequence a
// clustered cast pays on a healthy peer path at zero allocations: breaker
// admission, retry-budget deposit, success record, latency observation and
// the hedge-delay percentile read (which sorts into a stack array).
func TestLatencyTrackerPercentileNoAllocs(t *testing.T) {
	br := NewBreaker(BreakerConfig{})
	budget := NewBudget(0, 0)
	var lt LatencyTracker
	for i := 0; i < latencySamples; i++ {
		lt.Observe(time.Duration(i+1) * time.Millisecond)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if !br.Allow() {
			t.Fatal("breaker opened on an all-success run")
		}
		budget.Deposit()
		br.Record(true)
		lt.Observe(time.Millisecond)
		_ = lt.Percentile(0.95)
	})
	if allocs != 0 {
		t.Fatalf("Allow+Deposit+Record+Observe+Percentile allocated %v per run, want 0", allocs)
	}
}

func TestHedgePrimaryFastNoHedge(t *testing.T) {
	hedged := false
	v, err, fromHedge := Hedge(context.Background(), 50*time.Millisecond,
		func(ctx context.Context) (string, error) { return "primary", nil },
		func(ctx context.Context) (string, error) { return "secondary", nil },
		func() { hedged = true },
	)
	if err != nil || v != "primary" || fromHedge {
		t.Fatalf("got (%q, %v, hedged=%v), want primary win", v, err, fromHedge)
	}
	if hedged {
		t.Fatal("hedge launched though primary returned before the delay")
	}
}

func TestHedgeSecondaryWins(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	hedged := false
	v, err, fromHedge := Hedge(context.Background(), 5*time.Millisecond,
		func(ctx context.Context) (string, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return "primary", ctx.Err()
		},
		func(ctx context.Context) (string, error) { return "secondary", nil },
		func() { hedged = true },
	)
	if err != nil || v != "secondary" || !fromHedge {
		t.Fatalf("got (%q, %v, hedged=%v), want secondary win", v, err, fromHedge)
	}
	if !hedged {
		t.Fatal("onHedge not called")
	}
}

func TestHedgePrimaryWinsAfterHedgeLaunch(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	v, err, fromHedge := Hedge(context.Background(), time.Millisecond,
		func(ctx context.Context) (string, error) {
			time.Sleep(10 * time.Millisecond)
			return "primary", nil
		},
		func(ctx context.Context) (string, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return "", ctx.Err()
		},
		nil,
	)
	if err != nil || v != "primary" || fromHedge {
		t.Fatalf("got (%q, %v, hedged=%v), want slow primary win over stuck secondary", v, err, fromHedge)
	}
}

func TestHedgeSecondaryFailsPrimaryWins(t *testing.T) {
	v, err, _ := Hedge(context.Background(), time.Millisecond,
		func(ctx context.Context) (string, error) {
			time.Sleep(10 * time.Millisecond)
			return "primary", nil
		},
		func(ctx context.Context) (string, error) {
			return "", errors.New("hedge target down")
		},
		nil,
	)
	if err != nil || v != "primary" {
		t.Fatalf("got (%q, %v), want primary success despite failed hedge", v, err)
	}
}

func TestHedgeBothFailReturnsPrimaryError(t *testing.T) {
	perr := errors.New("primary boom")
	_, err, _ := Hedge(context.Background(), time.Millisecond,
		func(ctx context.Context) (string, error) {
			time.Sleep(5 * time.Millisecond)
			return "", perr
		},
		func(ctx context.Context) (string, error) {
			return "", errors.New("secondary boom")
		},
		nil,
	)
	if !errors.Is(err, perr) {
		t.Fatalf("err = %v, want primary error", err)
	}
}

func TestHedgeContextCancelled(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err, _ := Hedge(ctx, time.Millisecond,
		func(c context.Context) (string, error) {
			<-c.Done()
			return "", c.Err()
		},
		func(c context.Context) (string, error) {
			<-c.Done()
			return "", c.Err()
		},
		nil,
	)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestHedgeZeroDelayDisables(t *testing.T) {
	called := false
	v, err, fromHedge := Hedge(context.Background(), 0,
		func(ctx context.Context) (string, error) { return "only", nil },
		func(ctx context.Context) (string, error) { called = true; return "", nil },
		nil,
	)
	if err != nil || v != "only" || fromHedge || called {
		t.Fatalf("zero delay must run primary only: (%q, %v, %v, secondary=%v)", v, err, fromHedge, called)
	}
}

func TestHedgeNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		_, _, _ = Hedge(context.Background(), time.Microsecond,
			func(ctx context.Context) (string, error) {
				select {
				case <-time.After(2 * time.Millisecond):
				case <-ctx.Done():
				}
				return "p", nil
			},
			func(ctx context.Context) (string, error) { return "s", nil },
			nil,
		)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after hedged calls", base, runtime.NumGoroutine())
}
