package registry

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wgen"
)

// figPair registers the Figure 1a (billTo optional) source and Figure 2
// (billTo required) target schemas and returns their ids.
func figPair(t *testing.T, r *Registry) (src, dst string) {
	t.Helper()
	if _, err := r.Register("v1", wgen.Figure2XSD(true, 100), FormatAuto, ""); err != nil {
		t.Fatalf("register v1: %v", err)
	}
	if _, err := r.Register("v2", wgen.Figure2XSD(false, 100), FormatAuto, ""); err != nil {
		t.Fatalf("register v2: %v", err)
	}
	return "v1", "v2"
}

func poXML(withBill bool) string {
	return string(wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: 3, IncludeBillTo: withBill, Seed: 1})))
}

func TestRegisterAndPair(t *testing.T) {
	r := New(Config{})
	src, dst := figPair(t, r)
	p, err := r.Pair(src, dst)
	if err != nil {
		t.Fatalf("pair: %v", err)
	}
	if st, err := p.Stream.Validate(strings.NewReader(poXML(true))); err != nil {
		t.Fatalf("valid doc rejected: %v (stats %+v)", err, st)
	}
	if _, err := p.Stream.Validate(strings.NewReader(poXML(false))); err == nil {
		t.Fatal("billTo-less doc accepted against required-billTo target")
	}
	// The report carries the root verdict: POType1 is not subsumed by
	// POType2 (billTo may be absent) and not disjoint.
	if len(p.Report.Roots) == 0 {
		t.Fatal("report has no roots")
	}
	for _, v := range p.Report.Roots {
		if v.Label == "purchaseOrder" && (v.Subsumed || v.Disjoint) {
			t.Fatalf("purchaseOrder verdict wrong: %+v", v)
		}
	}
	if p.Report.AlwaysValid {
		t.Fatal("pair reported statically compatible")
	}
	// The reflexive pair is statically compatible.
	rp, err := r.Pair(src, src)
	if err != nil {
		t.Fatalf("reflexive pair: %v", err)
	}
	if !rp.Report.AlwaysValid {
		t.Fatal("reflexive pair not reported always-valid")
	}
}

func TestRegisterErrors(t *testing.T) {
	r := New(Config{})
	if _, err := r.Register("", "<xsd/>", FormatAuto, ""); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := r.Register("bad", "this is not a schema", FormatXSD, ""); err == nil {
		t.Fatal("garbage schema accepted")
	}
	if _, err := r.Pair("nope", "nada"); err == nil {
		t.Fatal("unknown ids produced a pair")
	} else {
		var ue *UnknownSchemaError
		if !errors.As(err, &ue) || ue.ID != "nope" {
			t.Fatalf("want UnknownSchemaError for nope, got %v", err)
		}
	}
}

func TestDTDRegistration(t *testing.T) {
	r := New(Config{})
	const d1 = `<!ELEMENT po (item*)> <!ELEMENT item (#PCDATA)>`
	const d2 = `<!ELEMENT po (item+)> <!ELEMENT item (#PCDATA)>`
	if _, err := r.Register("d1", d1, FormatAuto, "po"); err != nil {
		t.Fatalf("register d1: %v", err)
	}
	if _, err := r.Register("d2", d2, FormatAuto, "po"); err != nil {
		t.Fatalf("register d2: %v", err)
	}
	if e, _ := r.Schema("d1"); e.Format != FormatDTD {
		t.Fatalf("sniff failed: format %q", e.Format)
	}
	p, err := r.Pair("d1", "d2")
	if err != nil {
		t.Fatalf("dtd pair: %v", err)
	}
	if _, err := p.Stream.Validate(strings.NewReader("<po><item>x</item></po>")); err != nil {
		t.Fatalf("one-item doc rejected: %v", err)
	}
	if _, err := p.Stream.Validate(strings.NewReader("<po></po>")); err == nil {
		t.Fatal("empty po accepted against item+ target")
	}
}

// TestSingleflight storms a cold pair from many goroutines and requires
// exactly one compile.
func TestSingleflight(t *testing.T) {
	r := New(Config{})
	src, dst := figPair(t, r)
	const n = 32
	var wg sync.WaitGroup
	pairs := make([]*Pair, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			p, err := r.Pair(src, dst)
			if err != nil {
				t.Errorf("pair %d: %v", i, err)
				return
			}
			pairs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if pairs[i] != pairs[0] {
			t.Fatalf("goroutine %d got a different pair instance", i)
		}
	}
	st := r.Stats()
	if st.Compiles != 1 {
		t.Fatalf("want 1 compile for a cold pair under storm, got %d", st.Compiles)
	}
	if st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("want 1 miss / %d hits, got %d / %d", n-1, st.Misses, st.Hits)
	}
	if len(st.PerPair) != 1 || st.PerPair[0].Hits != n-1 {
		t.Fatalf("per-pair counters wrong: %+v", st.PerPair)
	}
	// A coalesce is by definition also a hit.
	if st.Coalesces > st.Hits {
		t.Fatalf("coalesces (%d) cannot exceed hits (%d)", st.Coalesces, st.Hits)
	}
}

// TestCoalesceCounter pins a waiter mid-compile deterministically: it
// compiles the pair once to learn the cache key, plants a fresh entry with
// an open ready channel (exactly the state Pair leaves while a compile is
// in flight), and calls Pair from another goroutine. That caller must be
// counted as a coalesce and must receive the pair published at close time.
// Black-box storming can't test this reliably — on a single-CPU runner the
// compile finishes before any rival goroutine is scheduled.
func TestCoalesceCounter(t *testing.T) {
	r := New(Config{})
	src, dst := figPair(t, r)
	real, err := r.Pair(src, dst)
	if err != nil {
		t.Fatal(err)
	}

	r.mu.Lock()
	key := r.schemas[src].Hash + "\x00" + r.schemas[dst].Hash
	old := r.pairs[key]
	e := &pairEntry{key: key, srcID: src, dstID: dst, ready: make(chan struct{})}
	r.lru.Remove(old.elem)
	e.elem = r.lru.PushFront(e)
	r.pairs[key] = e
	r.mu.Unlock()

	got := make(chan *Pair, 1)
	errc := make(chan error, 1)
	go func() {
		p, err := r.Pair(src, dst)
		errc <- err
		got <- p
	}()

	// The rival must take the coalesce branch — ready cannot be closed
	// before this goroutine closes it — so spinning on the counter is
	// deterministic, not a guess about scheduling.
	for r.Stats().Coalesces < 1 {
		runtime.Gosched()
	}
	e.pair = real
	close(e.ready)

	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if p := <-got; p != real {
		t.Fatal("coalesced caller got a different pair instance")
	}
	st := r.Stats()
	if st.Coalesces != 1 {
		t.Fatalf("want exactly 1 coalesce, got %d", st.Coalesces)
	}
	if st.Coalesces > st.Hits {
		t.Fatalf("coalesces (%d) cannot exceed hits (%d)", st.Coalesces, st.Hits)
	}
}

// TestCompileObserver checks the telemetry hook: one observation per
// compile, with a sane (non-negative) duration, and none for cache hits.
func TestCompileObserver(t *testing.T) {
	r := New(Config{})
	var mu sync.Mutex
	var observed []float64
	r.SetCompileObserver(func(seconds float64) {
		mu.Lock()
		observed = append(observed, seconds)
		mu.Unlock()
	})
	src, dst := figPair(t, r)
	if _, err := r.Pair(src, dst); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Pair(src, dst); err != nil { // hit: no new observation
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(observed) != 1 {
		t.Fatalf("want exactly 1 compile observation, got %d", len(observed))
	}
	if observed[0] < 0 {
		t.Fatalf("negative compile duration observed: %v", observed[0])
	}
}

// TestEviction checks the policy under a 2-entry budget: the pair worth
// least (lookups × rebuild cost) is dropped although it is not the least
// recently used, a pair worth more displaces a cached one when it comes
// back, and an evicted-but-held pair keeps validating.
func TestEviction(t *testing.T) {
	r, clk := abcRegistry(t, Config{MaxEntries: 2})
	pAB := compileAt(t, r, clk, "a", "b", 3*time.Millisecond)
	compileAt(t, r, clk, "a", "c", time.Millisecond)
	compileAt(t, r, clk, "b", "c", 2*time.Millisecond) // evicts (a, c), the cheapest
	st := r.Stats()
	if st.Pairs != 2 || st.Evictions != 1 {
		t.Fatalf("want 2 cached pairs / 1 eviction, got %d / %d", st.Pairs, st.Evictions)
	}
	if got := cachedPairs(r); got != "b>c a>b" {
		t.Fatalf("cached %q, want (b, c) and (a, b)", got)
	}
	// The held (a, b) pair is immutable and still usable whatever happens
	// to the cache.
	if _, err := pAB.Stream.Validate(strings.NewReader(poXML(true))); err != nil {
		t.Fatalf("held pair unusable: %v", err)
	}
	// Both survivors are still cached: requesting them again is a hit,
	// not a compile. (a, b), the least recently used, was kept.
	before := r.Stats().Compiles
	for _, pr := range [][2]string{{"b", "c"}, {"a", "b"}} {
		if _, err := r.Pair(pr[0], pr[1]); err != nil {
			t.Fatal(err)
		}
	}
	if after := r.Stats().Compiles; after != before {
		t.Fatalf("cached pairs recompiled: %d -> %d", before, after)
	}
	// Requesting (a, c) again recompiles it once. At 2 lookups × 5 ms it
	// is worth more than (b, c) at 2 × 2 ms, which goes.
	compileAt(t, r, clk, "a", "c", 5*time.Millisecond)
	st = r.Stats()
	if st.Compiles != before+1 || st.Evictions != 2 {
		t.Fatalf("compiles / evictions = %d / %d, want %d / 2", st.Compiles, st.Evictions, before+1)
	}
	if got := cachedPairs(r); got != "a>c a>b" {
		t.Fatalf("cached %q, want (a, c) and (a, b)", got)
	}
}

// TestByteBudget: a byte budget below the cost of two pairs keeps only the
// pair worth more; a budget below even one pair's cost still keeps that
// pair (a newcomer with no other ready entry beside it is kept).
func TestByteBudget(t *testing.T) {
	r, clk := abcRegistry(t, Config{MaxBytes: 1}) // smaller than any pair's cost
	compileAt(t, r, clk, "a", "b", time.Millisecond)
	if got := r.Len(); got != 1 {
		t.Fatalf("sole over-budget pair evicted: %d cached", got)
	}
	compileAt(t, r, clk, "b", "a", 2*time.Millisecond)
	st := r.Stats()
	if st.Pairs != 1 || st.Evictions != 1 {
		t.Fatalf("want 1 cached pair / 1 eviction under byte budget, got %d / %d", st.Pairs, st.Evictions)
	}
	if got := cachedPairs(r); got != "b>a" {
		t.Fatalf("cached %q, want (b, a), worth 2 ms against 1 ms", got)
	}
	// A newcomer worth less than the cached pair is refused, and the byte
	// total is the survivor's cost alone.
	compileAt(t, r, clk, "a", "c", time.Millisecond)
	st = r.Stats()
	if st.Pairs != 1 || st.Evictions != 2 {
		t.Fatalf("want 1 cached pair / 2 evictions, got %d / %d", st.Pairs, st.Evictions)
	}
	if got := cachedPairs(r); got != "b>a" || st.Bytes != st.PerPair[0].Bytes {
		t.Fatalf("cached %q holding %d bytes, want (b, a) alone holding %d", got, st.Bytes, st.PerPair[0].Bytes)
	}
}

// TestHotSwap re-registers a schema id and checks that the binding swaps
// for new lookups while the previously compiled pair stays cached and
// usable.
func TestHotSwap(t *testing.T) {
	r := New(Config{})
	src, dst := figPair(t, r)
	pOld, err := r.Pair(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// The billTo-less doc is invalid against v2 (billTo required).
	if _, err := pOld.Stream.Validate(strings.NewReader(poXML(false))); err == nil {
		t.Fatal("invalid doc accepted before swap")
	}
	// Swap v2 to the permissive schema (billTo optional).
	if _, err := r.Register(dst, wgen.Figure2XSD(true, 100), FormatAuto, ""); err != nil {
		t.Fatal(err)
	}
	pNew, err := r.Pair(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if pNew == pOld {
		t.Fatal("lookup after swap returned the old pair")
	}
	if _, err := pNew.Stream.Validate(strings.NewReader(poXML(false))); err != nil {
		t.Fatalf("doc invalid against swapped-in permissive target: %v", err)
	}
	// The old pair (held by an in-flight request) still behaves as before.
	if _, err := pOld.Stream.Validate(strings.NewReader(poXML(false))); err == nil {
		t.Fatal("old pair's verdict changed after swap")
	}
	// Both versions coexist in the cache under their content hashes.
	if got := r.Len(); got != 2 {
		t.Fatalf("want old+new pairs cached, got %d", got)
	}
	// Re-registering identical content keeps the same hash, so the pair
	// cache hits instead of recompiling.
	before := r.Stats().Compiles
	if _, err := r.Register(dst, wgen.Figure2XSD(true, 100), FormatAuto, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Pair(src, dst); err != nil {
		t.Fatal(err)
	}
	if after := r.Stats().Compiles; after != before {
		t.Fatalf("identical re-registration caused recompile: %d -> %d", before, after)
	}
}
