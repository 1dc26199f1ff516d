package registry

// Tests for the cache policy: eviction and admission by recent lookups ×
// rebuild cost, with rebuild costs fixed through the registry's clock seam.

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/wgen"
)

// testClock is the registry's clock under test. Every reading advances it
// by step, so a compile or a decode, timed by two consecutive readings,
// costs exactly step. hook, when set, runs before each reading.
type testClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
	hook func()
}

func (c *testClock) read() time.Time {
	c.mu.Lock()
	hook := c.hook
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

// cost fixes what the next pair obtained costs to rebuild.
func (c *testClock) cost(d time.Duration) {
	c.mu.Lock()
	c.step = d
	c.mu.Unlock()
}

// abcRegistry registers three schema versions a, b and c, whose three
// pairs (a, b), (a, c) and (b, c) all compile, and puts the registry on a
// test clock.
func abcRegistry(t *testing.T, cfg Config) (*Registry, *testClock) {
	t.Helper()
	r := New(cfg)
	for _, s := range []struct {
		id       string
		optional bool
		max      int
	}{{"a", true, 100}, {"b", false, 100}, {"c", false, 200}} {
		if _, err := r.Register(s.id, wgen.Figure2XSD(s.optional, s.max), FormatAuto, ""); err != nil {
			t.Fatal(err)
		}
	}
	clk := &testClock{now: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
	r.clock = clk.read
	return r, clk
}

// compileAt looks the pair up once with its rebuild cost fixed at d.
func compileAt(t *testing.T, r *Registry, clk *testClock, src, dst string, d time.Duration) *Pair {
	t.Helper()
	clk.cost(d)
	p, err := r.Pair(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// cachedPairs lists the cached pairs as "src>dst", most recently used first.
func cachedPairs(r *Registry) string {
	var out []string
	for _, row := range r.Stats().PerPair {
		out = append(out, row.Src+">"+row.Dst)
	}
	return strings.Join(out, " ")
}

// TestRefusedAdmission: a newcomer worth less than every cached pair is
// refused. The compiling caller and a coalesced waiter both get the pair,
// the cache keeps what it had, the eviction counter and the log each
// record the refusal once, and the next lookup compiles again.
func TestRefusedAdmission(t *testing.T) {
	h := &recordingHandler{}
	r, clk := abcRegistry(t, Config{MaxEntries: 2, Logger: slog.New(h)})
	compileAt(t, r, clk, "a", "b", 5*time.Millisecond)
	compileAt(t, r, clk, "a", "c", 5*time.Millisecond)

	// Hold the compile of (b, c) at its first clock reading until a second
	// caller has coalesced onto it: whichever goroutine misses compiles,
	// the other waits on its singleflight entry.
	clk.cost(time.Millisecond)
	clk.mu.Lock()
	clk.hook = func() {
		for r.coalesces.Load() < 1 {
			runtime.Gosched()
		}
	}
	clk.mu.Unlock()
	type result struct {
		p   *Pair
		lk  Lookup
		err error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			p, lk, err := r.PairCtx(context.Background(), "b", "c")
			results <- result{p, lk, err}
		}()
	}
	got := [2]result{<-results, <-results}
	clk.mu.Lock()
	clk.hook = nil
	clk.mu.Unlock()

	outcomes := map[string]int{}
	for _, res := range got {
		if res.err != nil {
			t.Fatal(res.err)
		}
		outcomes[res.lk.Outcome]++
		if _, err := res.p.Stream.Validate(strings.NewReader(poXML(true))); err != nil {
			t.Fatalf("refused pair does not serve its %s caller: %v", res.lk.Outcome, err)
		}
	}
	if outcomes[LookupMiss] != 1 || outcomes[LookupCoalesce] != 1 {
		t.Fatalf("outcomes = %v, want one miss and one coalesce", outcomes)
	}
	if got[0].p != got[1].p {
		t.Fatal("the compiling caller and the coalesced waiter got different pairs")
	}
	st := r.Stats()
	if st.Evictions != 1 || st.Compiles != 3 {
		t.Fatalf("evictions / compiles = %d / %d, want 1 / 3", st.Evictions, st.Compiles)
	}
	if got := cachedPairs(r); got != "a>c a>b" {
		t.Fatalf("cached %q, want the two 5 ms pairs", got)
	}
	recs := h.byMessage("registry: pair evicted")
	if len(recs) != 1 || recs[0].attrs["src"].String() != "b" || recs[0].attrs["dst"].String() != "c" {
		t.Fatalf("eviction records = %v, want one naming (b, c)", recs)
	}

	// Not cached, so the next lookup compiles again. (b, c) has now been
	// looked up three times: 3 × 1 ms is still worth less than 5 ms.
	compileAt(t, r, clk, "b", "c", time.Millisecond)
	if st := r.Stats(); st.Compiles != 4 || st.Evictions != 2 {
		t.Fatalf("after the retry: compiles / evictions = %d / %d, want 4 / 2", st.Compiles, st.Evictions)
	}
	if n := len(h.byMessage("registry: pair evicted")); n != 2 {
		t.Fatalf("eviction records = %d, want 2", n)
	}
}

// TestInFlightNeverVictim plants an in-flight compile at the least
// recently used end of a full cache: the cheapest ready entry goes, the
// in-flight one stays, and it keeps serving its waiter once it finishes.
func TestInFlightNeverVictim(t *testing.T) {
	r, clk := abcRegistry(t, Config{MaxEntries: 2})
	real := compileAt(t, r, clk, "a", "b", time.Millisecond)

	// Replace (a, b) by an entry whose compile is still in flight (the
	// TestCoalesceCounter technique) and move it to the LRU end.
	r.mu.Lock()
	key := r.schemas["a"].Hash + "\x00" + r.schemas["b"].Hash
	old := r.pairs[key]
	r.bytes -= old.cost
	r.lru.Remove(old.elem)
	inflight := &pairEntry{key: key, srcID: "a", dstID: "b", ready: make(chan struct{})}
	inflight.elem = r.lru.PushBack(inflight)
	r.pairs[key] = inflight
	r.mu.Unlock()

	compileAt(t, r, clk, "a", "c", 2*time.Millisecond)
	if st := r.Stats(); st.Evictions != 0 || st.Pairs != 2 {
		t.Fatalf("evictions / pairs = %d / %d, want 0 / 2", st.Evictions, st.Pairs)
	}
	// Three entries against a cap of 2: (a, c) at 2 ms and (b, c) at 3 ms
	// are the only candidates, so (a, c) goes although (a, b) is older.
	compileAt(t, r, clk, "b", "c", 3*time.Millisecond)
	if st := r.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if got := cachedPairs(r); got != "b>c a>b" {
		t.Fatalf("cached %q, want (b, c) and the in-flight (a, b)", got)
	}
	if r.pairs[key] != inflight {
		t.Fatal("the in-flight compile was evicted")
	}

	waiter := make(chan *Pair, 1)
	go func() {
		p, _ := r.Pair("a", "b")
		waiter <- p
	}()
	for r.coalesces.Load() < 1 {
		runtime.Gosched()
	}
	inflight.pair = real
	close(inflight.ready)
	if p := <-waiter; p != real {
		t.Fatal("the waiter did not get the pair its compile published")
	}
}

// TestEqualWorthFallsBackToLRU: among entries of equal lookups × cost the
// least recently used goes, whatever the insertion order.
func TestEqualWorthFallsBackToLRU(t *testing.T) {
	r, clk := abcRegistry(t, Config{MaxEntries: 2})
	compileAt(t, r, clk, "a", "b", time.Millisecond)   // 1 lookup × 1 ms
	compileAt(t, r, clk, "a", "c", 2*time.Millisecond) // 1 lookup × 2 ms
	if _, ok := r.CachedPair("a", "b"); !ok {          // 2 lookups × 1 ms, now MRU
		t.Fatal("(a, b) not cached")
	}
	compileAt(t, r, clk, "b", "c", 3*time.Millisecond)
	if st := r.Stats(); st.Evictions != 1 || st.Compiles != 3 {
		t.Fatalf("evictions / compiles = %d / %d, want 1 / 3", st.Evictions, st.Compiles)
	}
	if got := cachedPairs(r); got != "b>c a>b" {
		t.Fatalf("cached %q, want (a, c) evicted: inserted later, used less recently", got)
	}
}

// TestCountWindow: 100,000 distinct pair keys, each looked up once, never
// leave more keys counted than one window of lookups, and a key looked up
// often keeps its count across the halvings.
func TestCountWindow(t *testing.T) {
	const entries = 4
	r := New(Config{MaxEntries: entries})
	const ids = 317 // 317² ≥ 100,000 distinct ordered pairs
	for i := 0; i < ids; i++ {
		if _, err := r.Register(fmt.Sprint(i), fmt.Sprintf("<!ELEMENT r%d (#PCDATA)>", i), FormatAuto, fmt.Sprintf("r%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	window := countWindow * entries
	hotKey := r.schemas["0"].Hash + "\x00" + r.schemas["0"].Hash
	most := 0
	for n := 0; n < 100_000; n++ {
		if n%4 == 0 {
			r.CachedPair("0", "0")
		}
		i, j := n/ids, n%ids
		if _, ok := r.CachedPair(fmt.Sprint(i), fmt.Sprint(j)); ok {
			t.Fatal("CachedPair found a pair nothing compiled")
		}
		r.mu.Lock()
		most = max(most, len(r.freq))
		r.mu.Unlock()
	}
	if most > window {
		t.Fatalf("count state held %d keys, want at most the window of %d lookups", most, window)
	}
	if r.freq[hotKey] == 0 {
		t.Fatal("a key looked up every fifth lookup lost its count")
	}
	if st := r.Stats(); st.Compiles != 0 || st.Pairs != 0 {
		t.Fatalf("compiles / pairs = %d / %d, want 0 / 0", st.Compiles, st.Pairs)
	}
}

// TestPolicyConcurrent runs PairCtx, CachedPair and InstallArtifact over
// four pairs against a 2-entry cap on the real clock; under -race it
// checks the policy's bookkeeping is shared safely. Afterwards the cache
// is within its cap and its byte total matches its entries.
func TestPolicyConcurrent(t *testing.T) {
	donor, _ := abcRegistry(t, Config{})
	pairs := [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}, {"c", "a"}}
	blobs := map[[2]string][]byte{}
	for _, pr := range pairs {
		p, err := donor.Pair(pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		if blobs[pr], err = p.encode(); err != nil {
			t.Fatal(err)
		}
	}
	r, _ := abcRegistry(t, Config{MaxEntries: 2})
	r.clock = time.Now
	doc := poXML(true)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				pr := pairs[(w+i)%len(pairs)]
				var p *Pair
				var err error
				switch (w + i) % 3 {
				case 0:
					p, _, err = r.PairCtx(context.Background(), pr[0], pr[1])
				case 1:
					p, _ = r.CachedPair(pr[0], pr[1])
				case 2:
					p, err = r.InstallArtifact(context.Background(), pr[0], pr[1], blobs[pr], time.Millisecond)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if p != nil && pr == pairs[0] {
					if _, err := p.Stream.Validate(strings.NewReader(doc)); err != nil {
						t.Errorf("pair (a, b) rejects a valid document: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.pairs) > 2 {
		t.Fatalf("%d pairs cached under a cap of 2", len(r.pairs))
	}
	var sum int64
	for _, e := range r.pairs {
		sum += e.cost
	}
	if sum != r.bytes {
		t.Fatalf("byte total %d, entries sum to %d", r.bytes, sum)
	}
	if len(r.freq) > r.windowLocked() {
		t.Fatalf("%d keys counted, window %d", len(r.freq), r.windowLocked())
	}
}

// TestRebuildCostPerPath: whichever way a pair is obtained — compiled,
// loaded from disk by a lookup or by DiskPair, or installed from a peer —
// its CompileTime is what obtaining it took here, so no path enters the
// cache worth nothing.
func TestRebuildCostPerPath(t *testing.T) {
	dir := t.TempDir()
	r, clk := abcRegistry(t, Config{MaxEntries: 4, Store: openStore(t, dir)})
	if p := compileAt(t, r, clk, "a", "b", 3*time.Millisecond); p.CompileTime != 3*time.Millisecond {
		t.Fatalf("compiled pair costs %v, want 3ms", p.CompileTime)
	}
	blob, err := r.ArtifactBlob(artifact.Key(r.schemas["a"].Hash, r.schemas["b"].Hash))
	if err != nil {
		t.Fatal(err)
	}

	warm, wclk := abcRegistry(t, Config{MaxEntries: 4, Store: openStore(t, dir)})
	wclk.cost(2 * time.Millisecond)
	p, lk, err := warm.PairCtx(context.Background(), "a", "b")
	if err != nil || lk.Outcome != LookupArtifact || p.CompileTime != 2*time.Millisecond {
		t.Fatalf("disk lookup: outcome %q, cost %v, err %v; want artifact, 2ms", lk.Outcome, p.CompileTime, err)
	}

	stale, sclk := abcRegistry(t, Config{MaxEntries: 4, Store: openStore(t, dir)})
	sclk.cost(time.Millisecond)
	if p, ok := stale.DiskPair(context.Background(), "a", "b"); !ok || p.CompileTime != time.Millisecond {
		t.Fatalf("DiskPair: ok %v, want a pair costing 1ms", ok)
	}

	peer, pclk := abcRegistry(t, Config{MaxEntries: 4})
	pclk.cost(time.Millisecond)
	p, err = peer.InstallArtifact(context.Background(), "a", "b", blob, 4*time.Millisecond)
	if err != nil || p.CompileTime != 5*time.Millisecond {
		t.Fatalf("installed pair costs %v (err %v), want the 4ms fetch plus the 1ms decode", p.CompileTime, err)
	}
}
