// Package registry is the schema-pair cache behind the castd daemon: it
// holds schema texts by id and compiled (source, target) caster pairs by
// content hash, amortizing the R_sub/R_dis fixpoints and IDA construction
// across an unbounded stream of revalidation requests — the serving-layer
// half of the paper's economic argument (§1's message broker pays
// preprocessing once per schema pair, then casts documents nearly for
// free).
//
// Concurrency contract:
//
//   - Compiled pairs are immutable; a *Pair stays fully usable after
//     eviction or after one of its schemas is re-registered — holders are
//     never invalidated, the registry merely stops handing the pair out.
//   - Re-registering a schema id is an atomic hot-swap of the id → text
//     binding. In-flight validations run on the pair they resolved;
//     subsequent lookups resolve the new text. Pairs are keyed by content
//     hash, so two versions of one id coexist in the cache.
//   - Pair lookups are singleflight: N concurrent requests for an
//     uncompiled pair trigger exactly one compile; the other N-1 block on
//     it and share the result.
//   - Eviction is LRU under a configurable entry and approximate byte
//     budget; the most recently used pair is never evicted, so the cache
//     stays useful even when one pair alone exceeds the budget.
//   - Content models are compiled once per distinct model, not once per
//     schema load: a schema.ModelTable holds the models of the currently
//     bound schemas (reference-counted on bind and hot-swap), and every
//     load — registration, pair compile, artifact restore — reuses it.
//     The table changes only what a load costs, never what it produces.
package registry

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	revalidate "repro"
	"repro/internal/artifact"
	"repro/internal/faultinject"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// Format identifies a schema text format.
type Format string

const (
	// FormatAuto sniffs: texts containing a <!ELEMENT declaration (or
	// registered with no XSD markup) are DTDs, everything else is XSD.
	FormatAuto Format = ""
	FormatXSD  Format = "xsd"
	FormatDTD  Format = "dtd"
)

// Sniff guesses the format of a schema text.
func Sniff(text string) Format {
	if strings.Contains(text, "<!ELEMENT") {
		return FormatDTD
	}
	return FormatXSD
}

// SchemaEntry is one registered schema version: immutable once created.
type SchemaEntry struct {
	ID     string `json:"id"`
	Format Format `json:"format"`
	// DTDRoot fixes the root element for DTD texts without a DOCTYPE.
	DTDRoot string `json:"dtdRoot,omitempty"`
	Text    string `json:"-"`
	// Hash is the content hash (format, root and text) that keys the pair
	// cache; re-registering identical content is a no-op for the cache.
	Hash  string `json:"hash"`
	Bytes int    `json:"bytes"`

	// models are the distinct content models of the text, referenced in
	// the registry's model table while the entry is bound to its id.
	models []*schema.Model
}

// Pair is a compiled (source, target) schema pair: the tree-level and
// streaming casters over one shared set of relations and IDAs, plus the
// static-compatibility report. Immutable and safe for concurrent use.
type Pair struct {
	Src, Dst             *SchemaEntry
	SrcSchema, DstSchema *revalidate.Schema
	Caster               *revalidate.Caster
	Stream               *revalidate.StreamCaster
	Report               revalidate.PairReport
	CompileTime          time.Duration
	// Cost is the cache footprint charged against the byte budget,
	// estimated by pairCost from the schema texts and the c_immed states.
	// A compiled, restored or installed pair is charged the same.
	Cost int64
}

// costPerIDAState approximates the memory of one product-IDA state (dense
// transition row plus flag bits).
const costPerIDAState = 64

// pairCost estimates a pair's cache footprint: both schema texts plus
// costPerIDAState per c_immed state of its casters.
func pairCost(src, dst *SchemaEntry, report revalidate.PairReport) int64 {
	return int64(src.Bytes+dst.Bytes) + int64(report.IDAStates)*costPerIDAState
}

// UnknownSchemaError reports a lookup of an unregistered schema id.
type UnknownSchemaError struct{ ID string }

func (e *UnknownSchemaError) Error() string {
	return fmt.Sprintf("registry: unknown schema id %q", e.ID)
}

// CompilePanicError reports a schema-pair compile that panicked. The
// registry recovers the panic so the singleflight cannot poison its cache:
// the compiling caller and every coalesced waiter receive this error, the
// entry is evicted (the next lookup retries the compile), and the daemon
// maps it to a 500 — a server fault, not a verdict about the document.
type CompilePanicError struct {
	Src, Dst string // schema ids of the pair whose compile panicked
	Value    any    // recovered panic value
	Stack    []byte // compiling goroutine's stack at recovery
}

func (e *CompilePanicError) Error() string {
	return fmt.Sprintf("registry: compiling pair (%q, %q) panicked: %v", e.Src, e.Dst, e.Value)
}

// Config bounds the pair cache. Zero values mean unbounded.
type Config struct {
	// MaxEntries caps the number of cached compiled pairs.
	MaxEntries int
	// MaxBytes caps the approximate total Cost of cached pairs.
	MaxBytes int64
	// Store, when non-nil, persists compiled pairs as artifacts: lookups go
	// memory → disk → compile, and every compile (or peer install) writes
	// its blob through, so a restarted daemon warms from disk with zero
	// recompiles. Corrupt or stale blobs fall back to a fresh compile.
	Store *artifact.Store
	// Logger, when non-nil, receives structured records for cache
	// lifecycle events: one per eviction (with the victim's content hashes
	// and byte cost) and one per hot-swap re-registration. Records are
	// emitted with the triggering request's context, so they carry
	// trace_id/span_id under a correlating handler.
	Logger *slog.Logger
}

// Stats is a counter snapshot for /metrics.json.
type Stats struct {
	Schemas int   `json:"schemas"`
	Pairs   int   `json:"pairs"`
	Bytes   int64 `json:"bytes"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	// Coalesces counts hits that arrived while the pair's compile was still
	// in flight: callers that the singleflight saved from compiling.
	Coalesces int64 `json:"coalesces"`
	Compiles  int64 `json:"compiles"`
	Evictions int64 `json:"evictions"`
	// CompilePanics counts schema-pair compiles that panicked and were
	// recovered (the singleflight poisoning the fault-containment layer
	// guards against).
	CompilePanics int64       `json:"compilePanics"`
	CompileNS     int64       `json:"compileNS"`
	PerPair       []PairStats `json:"perPair,omitempty"`
}

// PairStats are the per-pair counters, MRU first.
type PairStats struct {
	Src       string `json:"src"`
	Dst       string `json:"dst"`
	Hits      int64  `json:"hits"`
	CompileNS int64  `json:"compileNS"`
	Bytes     int64  `json:"bytes"`
}

// pairEntry is the cache slot for one content-hash pair key. ready is
// closed once pair/err are set (the singleflight rendezvous).
type pairEntry struct {
	key          string
	artifactKey  string // artifact.Key of the pair, the ArtifactBlob index
	srcID, dstID string // ids observed at creation, for diagnostics
	ready        chan struct{}
	pair         *Pair
	err          error
	elem         *list.Element
	cost         int64
	hits         atomic.Int64
	// compiler is the span context active in the request that started this
	// entry's compile; coalescing requests link their lookup span to it so
	// the waterfall shows whose compile they piggybacked on.
	compiler telemetry.SpanContext
}

// Registry is the concurrent schema store and pair cache. The mutex guards
// only map/list bookkeeping; compiles and validations run outside it.
type Registry struct {
	cfg    Config
	logger *slog.Logger    // nil when Config.Logger was nil
	store  *artifact.Store // nil when persistence is disabled

	models *schema.ModelTable // content models of the bound schemas

	mu         sync.Mutex
	schemas    map[string]*SchemaEntry
	pairs      map[string]*pairEntry
	byArtifact map[string]*pairEntry // the pairs map, keyed by artifactKey
	lru        *list.List            // of *pairEntry; Front = most recently used
	bytes      int64

	hits, misses, compiles, evictions atomic.Int64
	coalesces                         atomic.Int64
	compileNS                         atomic.Int64
	compilePanics                     atomic.Int64

	// compileObserver, when set, receives each compile's wall-clock seconds
	// (the bridge into a latency histogram owned by the serving layer).
	compileObserver atomic.Pointer[func(seconds float64)]
}

// SetCompileObserver installs a callback invoked with each schema-pair
// compile's duration in seconds. The serving layer points this at its
// registry_compile_seconds histogram; a nil observer (the default) costs
// one atomic load per compile.
func (r *Registry) SetCompileObserver(fn func(seconds float64)) {
	if fn == nil {
		r.compileObserver.Store(nil)
		return
	}
	r.compileObserver.Store(&fn)
}

// New returns an empty registry.
func New(cfg Config) *Registry {
	return &Registry{
		cfg:        cfg,
		logger:     cfg.Logger,
		store:      cfg.Store,
		models:     schema.NewModelTable(),
		schemas:    map[string]*SchemaEntry{},
		pairs:      map[string]*pairEntry{},
		byArtifact: map[string]*pairEntry{},
		lru:        list.New(),
	}
}

// Store returns the artifact store the registry reads and writes through
// to, nil when persistence is disabled.
func (r *Registry) Store() *artifact.Store { return r.store }

// Register binds id to a schema text, compiling it once standalone so a
// broken schema is rejected at registration time rather than at first
// cast. A schema declaring identity constraints (xs:unique, xs:key,
// xs:keyref) is refused too, since no cast checks them. Re-registering an
// id hot-swaps the binding atomically; pairs compiled from the previous
// version stay cached (under their content hash) and stay usable by
// holders.
func (r *Registry) Register(id, text string, format Format, dtdRoot string) (*SchemaEntry, error) {
	return r.RegisterCtx(context.Background(), id, text, format, dtdRoot)
}

// contentHash is the hex SHA-256 of format, NUL, dtdRoot, NUL, text: a
// schema version's identity in the pair cache, the artifact store and
// peer ownership. The parts are streamed into the hash rather than
// concatenated first, which copied the schema text twice per call.
func contentHash(format Format, dtdRoot, text string) string {
	h := sha256.New()
	io.WriteString(h, string(format))
	io.WriteString(h, "\x00")
	io.WriteString(h, dtdRoot)
	io.WriteString(h, "\x00")
	io.WriteString(h, text)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// RegisterCtx is Register with a request context: a hot-swap (re-register
// under an id already bound to different content) emits one structured log
// record correlated to the requesting trace.
func (r *Registry) RegisterCtx(ctx context.Context, id, text string, format Format, dtdRoot string) (*SchemaEntry, error) {
	if id == "" {
		return nil, fmt.Errorf("registry: empty schema id")
	}
	if format == FormatAuto {
		format = Sniff(text)
	}
	e := &SchemaEntry{ID: id, Format: format, DTDRoot: dtdRoot, Text: text, Bytes: len(text)}
	s, err := e.load(revalidate.NewUniverseModels(r.models))
	if err != nil {
		return nil, err
	}
	if s.HasIdentityConstraints() {
		// No cast path checks xs:unique/key/keyref: a document breaking
		// one would be answered "valid". Refuse the schema instead.
		return nil, fmt.Errorf("registry: schema %q declares identity constraints, which casts do not check: %s",
			id, strings.Join(s.IdentityConstraints(), "; "))
	}
	e.models = s.Abstract().Models()
	e.Hash = contentHash(format, dtdRoot, text)
	r.mu.Lock()
	old := r.schemas[id]
	r.schemas[id] = e
	// Acquire before releasing, so models both versions share stay put.
	r.models.Acquire(e.models)
	if old != nil {
		r.models.Release(old.models)
	}
	r.mu.Unlock()
	if r.logger != nil && old != nil && old.Hash != e.Hash {
		r.logger.LogAttrs(ctx, slog.LevelInfo, "registry: schema hot-swapped",
			slog.String("id", id),
			slog.String("old_hash", old.Hash),
			slog.String("new_hash", e.Hash),
			slog.Int("old_bytes", old.Bytes),
			slog.Int("new_bytes", e.Bytes))
	}
	return e, nil
}

// load compiles the entry's text into u.
func (e *SchemaEntry) load(u *revalidate.Universe) (*revalidate.Schema, error) {
	switch e.Format {
	case FormatDTD:
		return u.LoadDTD(e.Text, e.DTDRoot)
	case FormatXSD:
		return u.LoadXSDString(e.Text)
	default:
		return nil, fmt.Errorf("registry: schema %q: unknown format %q", e.ID, e.Format)
	}
}

// Schema returns the current version registered under id.
func (r *Registry) Schema(id string) (*SchemaEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.schemas[id]
	return e, ok
}

// Schemas returns the current id → entry bindings.
func (r *Registry) Schemas() []*SchemaEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*SchemaEntry, 0, len(r.schemas))
	for _, e := range r.schemas {
		out = append(out, e)
	}
	return out
}

// Lookup outcomes reported by PairCtx.
const (
	// LookupHit resolved a fully compiled cached pair.
	LookupHit = "hit"
	// LookupMiss compiled the pair in this call.
	LookupMiss = "miss"
	// LookupArtifact loaded the pair from the artifact store instead of
	// compiling it.
	LookupArtifact = "artifact"
	// LookupCoalesce waited on a compile another caller was running.
	LookupCoalesce = "coalesce"
)

// Lookup describes how a PairCtx call was satisfied — the span-attribute
// view of the hit/miss/coalesce counters.
type Lookup struct {
	// Outcome is LookupHit, LookupMiss or LookupCoalesce.
	Outcome string
	// Compiler is, for a coalesced lookup, the span context that was
	// active in the request running the compile — the link target that
	// makes the singleflight visible in a trace waterfall. Zero otherwise.
	Compiler telemetry.SpanContext
}

// Pair returns the compiled caster pair for the current versions of the
// two schema ids, compiling (once, however many callers arrive
// concurrently) on a cache miss.
func (r *Registry) Pair(srcID, dstID string) (*Pair, error) {
	p, _, err := r.PairCtx(context.Background(), srcID, dstID)
	return p, err
}

// PairCtx is Pair with a request context: the returned Lookup reports how
// the call was satisfied (for span attributes and links), eviction log
// records triggered by an insert are correlated to ctx's trace, and a
// compile started here records ctx's span so later coalescers can link to
// it.
func (r *Registry) PairCtx(ctx context.Context, srcID, dstID string) (*Pair, Lookup, error) {
	r.mu.Lock()
	src, ok := r.schemas[srcID]
	if !ok {
		r.mu.Unlock()
		return nil, Lookup{}, &UnknownSchemaError{ID: srcID}
	}
	dst, ok := r.schemas[dstID]
	if !ok {
		r.mu.Unlock()
		return nil, Lookup{}, &UnknownSchemaError{ID: dstID}
	}
	key := src.Hash + "\x00" + dst.Hash
	if e, ok := r.pairs[key]; ok {
		// Hit (possibly on a compile still in flight — wait for it).
		e.hits.Add(1)
		r.hits.Add(1)
		r.lru.MoveToFront(e.elem)
		r.mu.Unlock()
		lk := Lookup{Outcome: LookupHit}
		select {
		case <-e.ready:
		default:
			// The compile is still in flight: this caller coalesced onto it
			// instead of compiling its own copy.
			r.coalesces.Add(1)
			lk.Outcome = LookupCoalesce
			lk.Compiler = e.compiler
		}
		<-e.ready
		return e.pair, lk, e.err
	}
	e := &pairEntry{key: key, srcID: srcID, dstID: dstID, ready: make(chan struct{})}
	e.compiler = telemetry.SpanFromContext(ctx).Context()
	r.insertLocked(e, src, dst)
	r.misses.Add(1)
	r.mu.Unlock()

	outcome := LookupMiss
	var err error
	start := time.Now()
	pair := r.loadArtifactPair(ctx, src, dst)
	if pair != nil {
		// Disk hit: the pair is ready without a compile; CompileTime is the
		// decode/reconstruction wall clock.
		pair.CompileTime = time.Since(start)
		outcome = LookupArtifact
	} else {
		r.compiles.Add(1)
		start = time.Now()
		pair, err = r.compilePairRecovered(ctx, src, dst)
		d := time.Since(start)
		r.compileNS.Add(int64(d))
		if obs := r.compileObserver.Load(); obs != nil {
			(*obs)(d.Seconds())
		}
		if pair != nil {
			pair.CompileTime = d
		}
		if err == nil && r.store != nil {
			blob, perr := pair.encode()
			if perr == nil {
				perr = r.store.Put(e.artifactKey, blob)
			}
			if perr != nil && !errors.Is(perr, artifact.ErrDegraded) && r.logger != nil {
				r.logger.LogAttrs(ctx, slog.LevelWarn, "registry: artifact write-through failed",
					slog.String("src", src.ID),
					slog.String("dst", dst.ID),
					slog.String("error", perr.Error()))
			}
		}
	}
	e.pair, e.err = pair, err
	close(e.ready)

	lk := Lookup{Outcome: outcome}
	r.mu.Lock()
	if r.pairs[key] != e {
		// Evicted while compiling; nothing to account.
		r.mu.Unlock()
		return pair, lk, err
	}
	if err != nil {
		// Failed compiles are not cached, so a corrected re-registration
		// retries instead of replaying the stale error.
		r.removeLocked(e)
		r.mu.Unlock()
		return nil, lk, err
	}
	e.cost = pair.Cost
	r.bytes += e.cost
	victims := r.evictLocked(e)
	r.mu.Unlock()
	r.logEvictions(ctx, victims)
	return pair, lk, nil
}

// logEvictions emits one structured record per evicted entry, outside the
// registry mutex.
func (r *Registry) logEvictions(ctx context.Context, victims []*pairEntry) {
	if r.logger == nil {
		return
	}
	for _, v := range victims {
		srcHash, dstHash, _ := strings.Cut(v.key, "\x00")
		r.logger.LogAttrs(ctx, slog.LevelInfo, "registry: pair evicted",
			slog.String("src", v.srcID),
			slog.String("dst", v.dstID),
			slog.String("src_hash", srcHash),
			slog.String("dst_hash", dstHash),
			slog.Int64("bytes", v.cost),
			slog.Int64("hits", v.hits.Load()))
	}
}

// compilePairRecovered runs compilePair under a panic guard. Without it a
// panicking compile would poison the singleflight: ready would never close
// (coalesced waiters hang forever) and the broken entry would shadow the
// key until process restart. Recovering here turns the panic into an
// ordinary compile error, which the caller's existing failed-compile path
// already evicts — so waiters get the error and the next lookup retries.
func (r *Registry) compilePairRecovered(ctx context.Context, src, dst *SchemaEntry) (pair *Pair, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			perr := &CompilePanicError{Src: src.ID, Dst: dst.ID, Value: rec, Stack: debug.Stack()}
			r.compilePanics.Add(1)
			if r.logger != nil {
				r.logger.LogAttrs(ctx, slog.LevelError, "registry: compile panicked",
					slog.String("src", src.ID),
					slog.String("dst", dst.ID),
					slog.Any("panic", rec),
					slog.String("stack", string(perr.Stack)))
			}
			pair, err = nil, perr
		}
	}()
	if err := faultinject.Compile(); err != nil {
		return nil, fmt.Errorf("registry: pair (%q, %q): %w", src.ID, dst.ID, err)
	}
	return compilePair(src, dst, r.models)
}

// compilePair loads both texts into a fresh universe and preprocesses the
// pair once (shared relations and caster table for both validation modes).
// Loading reuses the content models in models — the texts were registered,
// so their models are normally all there — and what remains is parsing,
// relabelling each model onto the pair's alphabet, and the pair's own
// R_sub/R_nondis fixpoints and IDAs. The pair is not serialized here: the
// artifact is encoded only when a store writes it or a peer asks for it.
func compilePair(src, dst *SchemaEntry, models *schema.ModelTable) (*Pair, error) {
	u := revalidate.NewUniverseModels(models)
	ss, err := src.load(u)
	if err != nil {
		return nil, fmt.Errorf("registry: source %q: %w", src.ID, err)
	}
	ds, err := dst.load(u)
	if err != nil {
		return nil, fmt.Errorf("registry: target %q: %w", dst.ID, err)
	}
	c, sc, err := revalidate.NewCasterPair(ss, ds)
	if err != nil {
		return nil, fmt.Errorf("registry: pair (%q, %q): %w", src.ID, dst.ID, err)
	}
	report := c.Report()
	return &Pair{
		Src: src, Dst: dst,
		SrcSchema: ss, DstSchema: ds,
		Caster: c, Stream: sc,
		Report: report,
		Cost:   pairCost(src, dst, report),
	}, nil
}

// encode serializes the pair as an artifact blob.
func (p *Pair) encode() ([]byte, error) {
	return artifact.Encode(p.Src.artifactInfo(), p.Dst.artifactInfo(), p.Caster, p.Report)
}

// artifactInfo is the schema's identity as the artifact codec carries it.
func (e *SchemaEntry) artifactInfo() artifact.SchemaInfo {
	return artifact.SchemaInfo{Format: string(e.Format), DTDRoot: e.DTDRoot, Text: e.Text, Hash: e.Hash}
}

// loadArtifactPair tries the disk store for the pair's artifact. Any
// failure — no store, not found, corrupt, stale — returns nil and the
// caller compiles fresh; the store itself counts the outcome and
// quarantines corrupt files.
func (r *Registry) loadArtifactPair(ctx context.Context, src, dst *SchemaEntry) *Pair {
	if r.store == nil {
		return nil
	}
	dec, err := r.store.LoadPair(artifact.Key(src.Hash, dst.Hash), r.models)
	if err != nil {
		if !errors.Is(err, artifact.ErrNotFound) && r.logger != nil {
			r.logger.LogAttrs(ctx, slog.LevelWarn, "registry: artifact load failed, compiling fresh",
				slog.String("src", src.ID),
				slog.String("dst", dst.ID),
				slog.String("error", err.Error()))
		}
		return nil
	}
	return pairFromDecoded(src, dst, dec)
}

// pairFromDecoded wraps a decoded artifact as a cache pair, charged the
// same Cost as the compile it replaces.
func pairFromDecoded(src, dst *SchemaEntry, dec *artifact.Decoded) *Pair {
	return &Pair{
		Src: src, Dst: dst,
		SrcSchema: dec.SrcSchema, DstSchema: dec.DstSchema,
		Caster: dec.Caster, Stream: dec.Stream,
		Report: dec.Report,
		Cost:   pairCost(src, dst, dec.Report),
	}
}

// CachedPair returns the compiled pair for the current versions of the two
// schema ids only if it is already in memory and ready — no disk read, no
// compile, no blocking on an in-flight compile. The cluster router uses it
// to prefer a warm local copy over peer traffic.
func (r *Registry) CachedPair(srcID, dstID string) (*Pair, bool) {
	r.mu.Lock()
	src, ok := r.schemas[srcID]
	if !ok {
		r.mu.Unlock()
		return nil, false
	}
	dst, ok := r.schemas[dstID]
	if !ok {
		r.mu.Unlock()
		return nil, false
	}
	e, ok := r.pairs[src.Hash+"\x00"+dst.Hash]
	if !ok {
		r.mu.Unlock()
		return nil, false
	}
	select {
	case <-e.ready:
	default:
		r.mu.Unlock()
		return nil, false
	}
	if e.err != nil {
		r.mu.Unlock()
		return nil, false
	}
	e.hits.Add(1)
	r.hits.Add(1)
	r.lru.MoveToFront(e.elem)
	r.mu.Unlock()
	return e.pair, true
}

// DiskPair resolves a pair from local state only — the in-memory cache or
// the on-disk artifact store — never compiling and never touching peers.
// It backs the degraded-mode "stale" policy: while the pair's owner is
// unreachable, a previously-fetched artifact keeps serving verdicts, and a
// pair this node has never seen reports (nil, false) so the caller can
// answer 503 instead of paying a compile. A disk hit is inserted into the
// cache, so the next request is a plain memory hit.
func (r *Registry) DiskPair(ctx context.Context, srcID, dstID string) (*Pair, bool) {
	if p, ok := r.CachedPair(srcID, dstID); ok {
		return p, true
	}
	r.mu.Lock()
	src, ok := r.schemas[srcID]
	if !ok {
		r.mu.Unlock()
		return nil, false
	}
	dst, ok := r.schemas[dstID]
	if !ok {
		r.mu.Unlock()
		return nil, false
	}
	r.mu.Unlock()
	pair := r.loadArtifactPair(ctx, src, dst)
	if pair == nil {
		return nil, false
	}
	key := src.Hash + "\x00" + dst.Hash
	r.mu.Lock()
	if e, ok := r.pairs[key]; ok {
		// Raced with a concurrent lookup or install; keep whichever landed.
		r.lru.MoveToFront(e.elem)
		r.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, false
		}
		return e.pair, true
	}
	e := &pairEntry{key: key, srcID: srcID, dstID: dstID, ready: make(chan struct{}), pair: pair, cost: pair.Cost}
	close(e.ready)
	r.insertLocked(e, src, dst)
	r.bytes += e.cost
	victims := r.evictLocked(e)
	r.mu.Unlock()
	r.logEvictions(ctx, victims)
	return pair, true
}

// InstallArtifact decodes a peer-fetched artifact blob and inserts the pair
// into the cache under the current versions of the two schema ids, without
// counting a compile. The blob must address exactly those versions — its
// embedded content hashes are checked — and is written through to the local
// store so the pair survives a restart. If the pair landed in the cache
// concurrently (a racing lookup or install), that copy wins and is
// returned.
func (r *Registry) InstallArtifact(ctx context.Context, srcID, dstID string, blob []byte) (*Pair, error) {
	r.mu.Lock()
	src, ok := r.schemas[srcID]
	if !ok {
		r.mu.Unlock()
		return nil, &UnknownSchemaError{ID: srcID}
	}
	dst, ok := r.schemas[dstID]
	if !ok {
		r.mu.Unlock()
		return nil, &UnknownSchemaError{ID: dstID}
	}
	key := src.Hash + "\x00" + dst.Hash
	if e, ok := r.pairs[key]; ok {
		r.hits.Add(1)
		e.hits.Add(1)
		r.lru.MoveToFront(e.elem)
		r.mu.Unlock()
		<-e.ready
		return e.pair, e.err
	}
	r.mu.Unlock()

	start := time.Now()
	dec, err := artifact.DecodeModels(blob, r.models)
	if err != nil {
		return nil, fmt.Errorf("registry: installing artifact for (%q, %q): %w", srcID, dstID, err)
	}
	if dec.Src.Hash != src.Hash || dec.Dst.Hash != dst.Hash {
		return nil, fmt.Errorf("registry: artifact for (%q, %q) addresses different schema content", srcID, dstID)
	}
	pair := pairFromDecoded(src, dst, dec)
	pair.CompileTime = time.Since(start)

	r.mu.Lock()
	if e, ok := r.pairs[key]; ok {
		// Raced with a concurrent lookup or install; keep whichever landed.
		r.lru.MoveToFront(e.elem)
		r.mu.Unlock()
		<-e.ready
		return e.pair, e.err
	}
	e := &pairEntry{key: key, srcID: srcID, dstID: dstID, ready: make(chan struct{}), pair: pair, cost: pair.Cost}
	close(e.ready)
	r.insertLocked(e, src, dst)
	r.bytes += e.cost
	victims := r.evictLocked(e)
	r.mu.Unlock()
	r.logEvictions(ctx, victims)

	if r.store != nil {
		if perr := r.store.Put(e.artifactKey, blob); perr != nil && !errors.Is(perr, artifact.ErrDegraded) && r.logger != nil {
			r.logger.LogAttrs(ctx, slog.LevelWarn, "registry: artifact write-through failed",
				slog.String("src", srcID),
				slog.String("dst", dstID),
				slog.String("error", perr.Error()))
		}
	}
	return pair, nil
}

// ArtifactBlob returns the encoded artifact addressed by key (artifact.Key
// over the pair's content hashes) for the peer-serving route: from the disk
// store when it has the blob, else re-encoded from the in-memory pair.
// Wraps artifact.ErrNotFound when this node holds neither.
func (r *Registry) ArtifactBlob(key string) ([]byte, error) {
	if r.store != nil {
		if blob, err := r.store.Get(key); err == nil {
			return blob, nil
		}
	}
	r.mu.Lock()
	e := r.byArtifact[key]
	r.mu.Unlock()
	var pair *Pair
	if e != nil {
		select {
		case <-e.ready:
			if e.err == nil {
				pair = e.pair
			}
		default:
		}
	}
	if pair == nil {
		return nil, fmt.Errorf("registry: no artifact under key %s: %w", key, artifact.ErrNotFound)
	}
	return pair.encode()
}

// insertLocked adds e to the cache maps and the LRU front, indexed under
// both its pair key and its artifact key. Caller holds r.mu.
func (r *Registry) insertLocked(e *pairEntry, src, dst *SchemaEntry) {
	e.artifactKey = artifact.Key(src.Hash, dst.Hash)
	e.elem = r.lru.PushFront(e)
	r.pairs[e.key] = e
	r.byArtifact[e.artifactKey] = e
}

// removeLocked drops e from the cache maps and the LRU. Caller holds r.mu.
func (r *Registry) removeLocked(e *pairEntry) {
	r.lru.Remove(e.elem)
	delete(r.pairs, e.key)
	delete(r.byArtifact, e.artifactKey)
}

// evictLocked drops LRU entries until the budgets hold, never evicting
// keep (the entry just inserted or hit), and returns the victims so the
// caller can log them outside the mutex. Evicted pairs remain usable by
// holders; only the cache forgets them. Caller holds r.mu.
func (r *Registry) evictLocked(keep *pairEntry) []*pairEntry {
	over := func() bool {
		if r.cfg.MaxEntries > 0 && len(r.pairs) > r.cfg.MaxEntries {
			return true
		}
		return r.cfg.MaxBytes > 0 && r.bytes > r.cfg.MaxBytes
	}
	var victims []*pairEntry
	for over() {
		back := r.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*pairEntry)
		if victim == keep {
			break
		}
		r.removeLocked(victim)
		r.bytes -= victim.cost
		r.evictions.Add(1)
		victims = append(victims, victim)
	}
	return victims
}

// Len reports the number of cached compiled pairs.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pairs)
}

// Stats snapshots the registry counters, per-pair rows MRU first.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Schemas:       len(r.schemas),
		Pairs:         len(r.pairs),
		Bytes:         r.bytes,
		Hits:          r.hits.Load(),
		Misses:        r.misses.Load(),
		Coalesces:     r.coalesces.Load(),
		Compiles:      r.compiles.Load(),
		Evictions:     r.evictions.Load(),
		CompilePanics: r.compilePanics.Load(),
		CompileNS:     r.compileNS.Load(),
	}
	for el := r.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*pairEntry)
		row := PairStats{Src: e.srcID, Dst: e.dstID, Hits: e.hits.Load(), Bytes: e.cost}
		select {
		case <-e.ready:
			if e.pair != nil {
				row.CompileNS = int64(e.pair.CompileTime)
			}
		default:
			// Still compiling; report the row with zero compile time.
		}
		st.PerPair = append(st.PerPair, row)
	}
	return st
}
