package registry

// Tests for the registry's structured-log and span-lookup observability:
// eviction and hot-swap records, and the Lookup outcome/link contract of
// PairCtx.

import (
	"context"
	"log/slog"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wgen"
)

// recordingHandler is a slog.Handler capturing every record it handles.
type recordingHandler struct {
	mu      sync.Mutex
	records []capturedRecord
}

type capturedRecord struct {
	msg   string
	attrs map[string]slog.Value
}

func (h *recordingHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *recordingHandler) Handle(_ context.Context, r slog.Record) error {
	c := capturedRecord{msg: r.Message, attrs: map[string]slog.Value{}}
	r.Attrs(func(a slog.Attr) bool {
		c.attrs[a.Key] = a.Value
		return true
	})
	h.mu.Lock()
	h.records = append(h.records, c)
	h.mu.Unlock()
	return nil
}

func (h *recordingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *recordingHandler) WithGroup(string) slog.Handler      { return h }

func (h *recordingHandler) byMessage(msg string) []capturedRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []capturedRecord
	for _, c := range h.records {
		if c.msg == msg {
			out = append(out, c)
		}
	}
	return out
}

// TestEvictionLogOncePerVictim replays the TestEviction scenario under a
// recording logger: the eviction record must fire exactly once per evicted
// entry — the record count always matches the evictions counter — and must
// name the victim.
func TestEvictionLogOncePerVictim(t *testing.T) {
	h := &recordingHandler{}
	r, clk := abcRegistry(t, Config{MaxEntries: 2, Logger: slog.New(h)})
	compileAt(t, r, clk, "a", "b", 3*time.Millisecond)
	compileAt(t, r, clk, "a", "c", time.Millisecond)
	if got := h.byMessage("registry: pair evicted"); len(got) != 0 {
		t.Fatalf("eviction logged before any eviction happened: %v", got)
	}
	compileAt(t, r, clk, "b", "c", 2*time.Millisecond) // evicts (a, c)

	recs := h.byMessage("registry: pair evicted")
	evictions := int(r.Stats().Evictions)
	if evictions != 1 {
		t.Fatalf("want 1 eviction, got %d", evictions)
	}
	if len(recs) != evictions {
		t.Fatalf("eviction records = %d, evictions = %d: must be one record per victim", len(recs), evictions)
	}
	rec := recs[0]
	if rec.attrs["src"].String() != "a" || rec.attrs["dst"].String() != "c" {
		t.Errorf("eviction record names (%s, %s), want (a, c)", rec.attrs["src"], rec.attrs["dst"])
	}
	aHash, _ := r.Schema("a")
	if rec.attrs["src_hash"].String() != aHash.Hash {
		t.Errorf("src_hash = %s, want %s", rec.attrs["src_hash"], aHash.Hash)
	}
	cHash, _ := r.Schema("c")
	if rec.attrs["dst_hash"].String() != cHash.Hash {
		t.Errorf("dst_hash = %s, want %s", rec.attrs["dst_hash"], cHash.Hash)
	}
	if rec.attrs["bytes"].Int64() <= 0 {
		t.Errorf("bytes = %d, want > 0", rec.attrs["bytes"].Int64())
	}
	if rec.attrs["hits"].Int64() != 0 {
		t.Errorf("hits = %d, want 0 (pair was compiled once, never hit again)", rec.attrs["hits"].Int64())
	}

	// Further lookups that evict again keep the 1:1 record/eviction ratio.
	compileAt(t, r, clk, "a", "c", 5*time.Millisecond) // evicts (b, c)
	recs = h.byMessage("registry: pair evicted")
	if evictions = int(r.Stats().Evictions); evictions != 2 || len(recs) != evictions {
		t.Fatalf("after second round: records = %d, evictions = %d, want 2 / 2", len(recs), evictions)
	}
	if rec := recs[1]; rec.attrs["src"].String() != "b" || rec.attrs["dst"].String() != "c" {
		t.Errorf("second eviction record names (%s, %s), want (b, c)", rec.attrs["src"], rec.attrs["dst"])
	}
}

// TestHotSwapLog: re-registering an id with different content emits one
// record carrying both content hashes; re-registering identical content —
// a cache no-op — emits nothing, as does a first registration.
func TestHotSwapLog(t *testing.T) {
	h := &recordingHandler{}
	r := New(Config{Logger: slog.New(h)})
	v1 := wgen.Figure2XSD(true, 100)
	v2 := wgen.Figure2XSD(false, 100)
	e1, err := r.Register("s", v1, FormatAuto, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := h.byMessage("registry: schema hot-swapped"); len(got) != 0 {
		t.Fatalf("first registration logged as hot-swap: %v", got)
	}
	if _, err := r.Register("s", v1, FormatAuto, ""); err != nil {
		t.Fatal(err)
	}
	if got := h.byMessage("registry: schema hot-swapped"); len(got) != 0 {
		t.Fatalf("identical re-registration logged as hot-swap: %v", got)
	}
	e2, err := r.Register("s", v2, FormatAuto, "")
	if err != nil {
		t.Fatal(err)
	}
	recs := h.byMessage("registry: schema hot-swapped")
	if len(recs) != 1 {
		t.Fatalf("want exactly one hot-swap record, got %d", len(recs))
	}
	rec := recs[0]
	if rec.attrs["id"].String() != "s" {
		t.Errorf("id = %s", rec.attrs["id"])
	}
	if rec.attrs["old_hash"].String() != e1.Hash || rec.attrs["new_hash"].String() != e2.Hash {
		t.Errorf("hashes = (%s, %s), want (%s, %s)",
			rec.attrs["old_hash"], rec.attrs["new_hash"], e1.Hash, e2.Hash)
	}
}

// TestPairCtxLookupOutcomes: the Lookup reports miss → hit, and a
// coalesced lookup carries the compiling request's span context so the
// caller can link to it.
func TestPairCtxLookupOutcomes(t *testing.T) {
	r := New(Config{})
	src, dst := figPair(t, r)

	_, lk, err := r.PairCtx(context.Background(), src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if lk.Outcome != LookupMiss {
		t.Fatalf("first lookup outcome = %q, want miss", lk.Outcome)
	}
	real, lk, err := r.PairCtx(context.Background(), src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if lk.Outcome != LookupHit {
		t.Fatalf("second lookup outcome = %q, want hit", lk.Outcome)
	}
	if lk.Compiler.IsValid() {
		t.Fatal("plain hit should not carry a compiler span context")
	}

	// Plant an in-flight entry with a known compiler span context (the
	// TestCoalesceCounter technique) and check the coalescer sees it.
	compiler := telemetry.SpanContext{
		TraceID: telemetry.TraceID{0xab, 1},
		SpanID:  telemetry.SpanID{0xcd, 2},
		Sampled: true,
	}
	r.mu.Lock()
	key := r.schemas[src].Hash + "\x00" + r.schemas[dst].Hash
	old := r.pairs[key]
	e := &pairEntry{key: key, srcID: src, dstID: dst, ready: make(chan struct{}), compiler: compiler}
	r.lru.Remove(old.elem)
	e.elem = r.lru.PushFront(e)
	r.pairs[key] = e
	r.mu.Unlock()

	type result struct {
		lk  Lookup
		err error
	}
	got := make(chan result, 1)
	go func() {
		_, lk, err := r.PairCtx(context.Background(), src, dst)
		got <- result{lk, err}
	}()
	for r.Stats().Coalesces < 1 {
		runtime.Gosched()
	}
	e.pair = real
	close(e.ready)

	res := <-got
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.lk.Outcome != LookupCoalesce {
		t.Fatalf("outcome = %q, want coalesce", res.lk.Outcome)
	}
	if res.lk.Compiler != compiler {
		t.Fatalf("coalesce compiler = %+v, want the planted span context", res.lk.Compiler)
	}
}
