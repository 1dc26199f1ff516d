// Package server exposes the schema-pair registry over HTTP: the handler
// behind the castd revalidation daemon. Documents are cast-validated
// straight off the request body through the streaming caster, so per-
// request memory is O(document depth) regardless of document size; all
// preprocessing is amortized in the registry.
//
// Routes:
//
//	PUT  /schemas/{id}            register a schema (XSD or DTD text body)
//	GET  /schemas/{id}            registered-version metadata
//	POST /cast/{src}/{dst}        cast-validate the request body (one doc;
//	                              ?explain=1 adds the decision trace)
//	POST /cast/{src}/{dst}/batch  cast-validate a JSON array of documents
//	GET  /pairs/{src}/{dst}       static-compatibility report, no document
//	GET  /artifacts/{key}         compiled pair artifact blob (peer fetch)
//	GET  /metrics                 Prometheus text exposition (or OpenMetrics
//	                              with exemplars, via Accept negotiation)
//	GET  /metrics.json            metric snapshot (JSON, all families)
//	GET  /debug/fleet             cross-peer merged metric view (JSON;
//	                              ?format=html, ?family=NAME)
//	GET  /debug/traces            retained request traces (JSON; ?format=html)
//	GET  /debug/traces/{id}       one trace's span tree (JSON; ?format=html)
//	GET  /healthz                 liveness (503 while draining)
//
// Every route is wrapped in one middleware that assigns a request id,
// tracks the in-flight gauge, observes the latency histogram and counts
// the (route, status) pair — so the serving layer's families cost nothing
// on the validation hot path (engines keep request-scoped Stats structs;
// telemetry is fed once per request at this boundary).
//
// The same middleware is the trace boundary: it extracts the W3C
// traceparent header (malformed values fall back to a fresh trace id),
// opens the request's root span, injects the local span context on the
// response, plants the span in the request context (so every slog record
// emitted under a telemetry.CorrelateHandler carries trace_id/span_id),
// and emits the structured access record. Work routes open child spans
// around the registry lookup and the cast itself; observability routes
// (/metrics, /debug/traces, /healthz) are never traced, so scrapes and
// waterfall views do not fill the ring they read.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	revalidate "repro"
	"repro/internal/artifact"
	"repro/internal/faultinject"
	"repro/internal/hotpair"
	"repro/internal/profiling"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/telemetry/otlp"
	"repro/internal/work"
)

// maxSchemaBytes bounds a PUT /schemas body; schema texts are small, and
// an unbounded read is a trivial memory DoS.
const maxSchemaBytes = 16 << 20

// maxBatchBytes bounds a POST /cast batch body (single-document casts are
// bounded per document by Options.MaxDocBytes).
const maxBatchBytes = 256 << 20

// admissionGrace is how long a request may queue for an in-flight slot
// before it is shed with 429: long enough to ride out momentary bursts,
// short enough that a saturated server answers (and frees the connection)
// almost immediately instead of stacking goroutines.
const admissionGrace = 50 * time.Millisecond

// Options tune the server.
type Options struct {
	// Workers sizes the batch-validation worker pool; <= 0 means one
	// worker per logical CPU (per request).
	Workers int
	// Logger, when non-nil, receives the server's structured records. Wrap
	// its handler in telemetry.NewCorrelateHandler so records carry
	// trace_id/span_id (castd does); the server only logs with request
	// contexts, never ids directly.
	Logger *slog.Logger
	// AccessLog, when true, emits one Logger record per request (request
	// id, method, path, route, status, duration).
	AccessLog bool
	// Tracer, when non-nil, records request-scoped spans served on
	// /debug/traces. A nil tracer disables tracing entirely: the hot path
	// pays only nil checks.
	Tracer *telemetry.Tracer

	// CastTimeout bounds one cast or batch request end to end: it becomes
	// the request context's deadline (the stream walker polls it with
	// amortized checks) and the connection's read deadline (so a stalled
	// client fails the body read instead of pinning a worker). <= 0
	// disables the deadline.
	CastTimeout time.Duration
	// MaxDocBytes bounds one document's bytes: the /cast body via
	// http.MaxBytesReader, and each element of a /batch array by length.
	// <= 0 means unlimited.
	MaxDocBytes int64
	// MaxDepth bounds open-element depth per document; a deeper document is
	// rejected with 422 before the stack grows further. <= 0 unlimited.
	MaxDepth int
	// MaxElements bounds elements (visited + skimmed) per document.
	// <= 0 unlimited.
	MaxElements int64
	// MaxInFlight bounds concurrently admitted work requests (register,
	// cast, batch, pairs). Excess requests wait briefly for a slot and are
	// then shed with 429 + Retry-After. <= 0 disables admission control.
	MaxInFlight int

	// Profiler, when non-nil, receives the server's capture triggers (slow
	// requests, sheds, recovered panics) and serves its ring on
	// /debug/profiles. The caller owns its lifecycle (Start/Stop); a nil
	// profiler leaves the endpoints mounted but empty.
	Profiler *profiling.Profiler
	// HotPairK bounds per-pair cast attribution to the K costliest schema
	// pairs (plus an `other` overflow bucket) on /metrics and
	// /debug/hotpairs. 0 means DefaultHotPairK; negative disables tracking.
	HotPairK int

	// PeerProbeInterval is the cadence of the background peer health prober
	// feeding castd_peer_up; <= 0 means DefaultPeerProbeInterval. Only
	// meaningful with clustering enabled.
	PeerProbeInterval time.Duration
	// PeerTimeout bounds each individual peer attempt (one artifact fetch
	// or hedge); <= 0 means DefaultPeerTimeout. The whole retry/hedge
	// chain is additionally bounded by the request deadline (CastTimeout,
	// propagated across hops).
	PeerTimeout time.Duration
	// PeerRetries is how many times a failed peer fetch is retried (with
	// exponential backoff + full jitter, under the global retry budget).
	// 0 means DefaultPeerRetries; negative disables retries.
	PeerRetries int
	// PeerBreakerFailures, PeerBreakerWindow, PeerBreakerRate and
	// PeerBreakerOpenFor tune the per-peer circuit breakers; zero fields
	// take the resilience package defaults (5 consecutive failures, 30s
	// window, 0.5 error rate, 5s cool-off).
	PeerBreakerFailures int
	PeerBreakerWindow   time.Duration
	PeerBreakerRate     float64
	PeerBreakerOpenFor  time.Duration
	// HedgeAfter launches a second artifact fetch against another warm
	// peer when the first has not answered after this long (or the
	// observed p95 fetch latency, whichever is larger). <= 0 disables
	// hedging.
	HedgeAfter time.Duration
	// DegradedMode picks what a non-owner does when the owner's breaker
	// is open (or all attempts failed): DegradedModeLocal compiles
	// locally (the default), DegradedModeStale serves a disk-cached
	// artifact without compiling, DegradedModeFail answers 503 with
	// Retry-After.
	DegradedMode string

	// OTLPEndpoint is an OTLP/HTTP collector base URL (e.g.
	// "http://collector:4318"); retained traces and periodic metric
	// snapshots are exported there. Empty disables export entirely.
	OTLPEndpoint string
	// OTLPInterval is the metric snapshot/export cadence; <= 0 means
	// otlp.DefaultInterval. Only meaningful with OTLPEndpoint set.
	OTLPInterval time.Duration
	// OTLPQueue bounds the export queue (drop-oldest on overflow); <= 0
	// means otlp.DefaultQueueSize.
	OTLPQueue int

	// SelfURL is this instance's base URL as its peers address it (e.g.
	// "http://10.0.0.1:8080"). Clustering is enabled only when both SelfURL
	// and Peers are set.
	SelfURL string
	// Peers lists the base URLs of every cluster member (self included;
	// it is added if missing). Each compiled (source, target) pair key is
	// owned by one member chosen by rendezvous hashing; a non-owner first
	// tries to fetch the owner's compiled artifact, then proxies the
	// request, so the cluster pays each pair's preprocessing once.
	Peers []string
}

// Server is the castd HTTP handler. Safe for concurrent use; all shared
// state lives in the registry, in atomic counters, or in the telemetry
// registry (whose series are atomics resolved once at construction).
type Server struct {
	reg       *registry.Registry
	workers   int
	mux       *http.ServeMux
	logger    *slog.Logger
	accessLog bool
	tracer    *telemetry.Tracer

	draining atomic.Bool
	reqID    atomic.Uint64

	// Resource-governance knobs (fixed at construction, read-only after).
	castTimeout time.Duration
	maxDocBytes int64
	limits      revalidate.Limits
	// admit is the in-flight semaphore for work routes; nil disables
	// admission control.
	admit chan struct{}

	reqRegister, reqCast, reqBatch, reqPairs atomic.Int64
	verdictValid, verdictInvalid             atomic.Int64

	// Prometheus families. Labeled series are resolved in New or once per
	// request — never per element.
	met          *telemetry.Registry
	httpRequests *telemetry.CounterVec   // route, code
	httpDuration *telemetry.HistogramVec // route
	castDuration *telemetry.Histogram    // the cast-latency exemplar carrier
	inFlight     *telemetry.Gauge
	verdicts     *telemetry.CounterVec // verdict
	// workFamilies[i] is the cumulative family of workRows[i].
	workFamilies []*telemetry.Counter

	// Fault-containment families.
	mPanics    *telemetry.Counter   // panics recovered (middleware + batch slots)
	mShed      *telemetry.Counter   // requests shed with 429
	mQueueWait *telemetry.Histogram // admission queue wait of admitted requests

	// Cluster state; nil when -peers is unset. The peer counters exist
	// either way so dashboards see stable zero series on single nodes.
	cluster       *cluster
	mPeerForwards *telemetry.Counter
	mPeerFetch    *telemetry.Counter
	mPeerErrors   *telemetry.Counter

	// Resilience state: per-peer circuit breakers (built once in New,
	// read-only map after), the global retry budget, and the fetch
	// latency window steering hedge delays. All nil-safe on single nodes.
	breakers       map[string]*resilience.Breaker
	retryBudget    *resilience.Budget
	fetchLat       *resilience.LatencyTracker
	peerRetries    int
	peerTimeout    time.Duration
	hedgeAfter     time.Duration
	degradedMode   string
	mPeerRetries   *telemetry.Counter
	mPeerHedges    *telemetry.Counter
	mPeerHedgeWins *telemetry.Counter
	mDegraded      *telemetry.CounterVec // mode

	// Diagnostics: the profile ring's triggers, and bounded per-pair cast
	// attribution. Both are nil-safe no-ops when unconfigured.
	profiler *profiling.Profiler
	hotPairs *hotpair.Tracker

	// OTLP exporter; nil (all methods no-op) without -otlp-endpoint.
	exporter *otlp.Exporter

	// Peer health prober state; nil channels when not clustered. peerHealth
	// is built once in startProber (read-only map after) and feeds the
	// /debug/fleet freshness/up-down columns.
	proberStop chan struct{}
	proberDone chan struct{}
	peerHealth map[string]*peerStatus
	closeOnce  sync.Once
}

// peerStatus is one peer's last observed liveness, shared between the
// prober (writer) and /debug/fleet (reader).
type peerStatus struct {
	up        atomic.Bool
	lastProbe atomic.Int64 // unix nanos of the last completed probe; 0 = never
}

// DefaultHotPairK is the hot-pair attribution bound when Options.HotPairK
// is zero: generous enough for a real schema portfolio, small enough that
// the K+1 label sets never threaten a Prometheus server.
const DefaultHotPairK = 32

// DefaultPeerProbeInterval is the peer health probe cadence when
// Options.PeerProbeInterval is unset.
const DefaultPeerProbeInterval = 5 * time.Second

// DefaultPeerTimeout bounds one peer attempt when Options.PeerTimeout is
// unset. Blobs are small (schema texts plus automata tables), so a slower
// fetch means a sick peer — better to retry, hedge or degrade than wait.
const DefaultPeerTimeout = 10 * time.Second

// DefaultPeerRetries is the retry count when Options.PeerRetries is zero.
const DefaultPeerRetries = 2

// Degraded-mode policies for Options.DegradedMode.
const (
	// DegradedModeLocal compiles the pair locally when the owner is
	// unavailable: availability beats the once-per-cluster compile
	// economy during an outage.
	DegradedModeLocal = "local"
	// DegradedModeStale serves the pair from the local artifact store
	// without compiling; casts for pairs this node never saw answer 503.
	DegradedModeStale = "stale"
	// DegradedModeFail answers 503 + Retry-After immediately — for
	// fleets that prefer fast failover upstream over degraded work here.
	DegradedModeFail = "fail"
)

// New wires the routes over a registry.
func New(reg *registry.Registry, opts Options) *Server {
	s := &Server{
		reg: reg, workers: opts.Workers, mux: http.NewServeMux(),
		logger: opts.Logger, accessLog: opts.AccessLog, tracer: opts.Tracer,
		castTimeout: opts.CastTimeout,
		maxDocBytes: opts.MaxDocBytes,
		limits:      revalidate.Limits{MaxDepth: opts.MaxDepth, MaxElements: opts.MaxElements},
	}
	if opts.MaxInFlight > 0 {
		s.admit = make(chan struct{}, opts.MaxInFlight)
	}

	met := telemetry.NewRegistry()
	s.met = met
	s.httpRequests = met.CounterVec("http_requests_total",
		"HTTP requests by route and status code.", "route", "code")
	s.httpDuration = met.HistogramVec("http_request_duration_seconds",
		"HTTP request latency by route.", telemetry.DefBuckets(), "route")
	s.castDuration = met.Histogram("cast_duration_seconds",
		"Cast-validation latency (single casts and batches).", telemetry.DefBuckets())
	s.inFlight = met.Gauge("http_in_flight_requests",
		"HTTP requests currently being served.")
	s.verdicts = met.CounterVec("cast_verdicts_total",
		"Cast validation verdicts.", "verdict")
	for _, row := range workRows {
		s.workFamilies = append(s.workFamilies, met.Counter(row.family, row.help))
	}
	s.mPanics = met.Counter("castd_panics_total",
		"Panics recovered by the request middleware and batch workers.")
	s.mShed = met.Counter("castd_shed_total",
		"Requests shed with 429 because every -max-in-flight slot stayed busy.")
	s.mQueueWait = met.Histogram("castd_queue_wait_seconds",
		"Time admitted requests waited for an in-flight slot.",
		telemetry.ExponentialBuckets(0.0001, 10, 6))

	// Cluster families: stable zero series when -peers is unset.
	s.cluster = newCluster(opts.SelfURL, opts.Peers)
	s.mPeerForwards = met.Counter("castd_peer_forwards_total",
		"Cast requests proxied whole to the pair's owning peer.")
	s.mPeerFetch = met.Counter("castd_peer_fetch_total",
		"Pair artifacts fetched from the owning peer and installed locally.")
	s.mPeerErrors = met.Counter("castd_peer_errors_total",
		"Peer fetches, installs or proxies that failed.")
	// Resilience: retry budget, hedging latency window, per-peer circuit
	// breakers, degraded-mode policy. The families exist at zero on
	// single nodes like the peer counters above.
	s.peerTimeout = opts.PeerTimeout
	if s.peerTimeout <= 0 {
		s.peerTimeout = DefaultPeerTimeout
	}
	s.peerRetries = opts.PeerRetries
	if s.peerRetries == 0 {
		s.peerRetries = DefaultPeerRetries
	} else if s.peerRetries < 0 {
		s.peerRetries = 0
	}
	s.hedgeAfter = opts.HedgeAfter
	s.degradedMode = opts.DegradedMode
	if s.degradedMode == "" {
		s.degradedMode = DegradedModeLocal
	}
	s.retryBudget = resilience.NewBudget(0, 0)
	s.fetchLat = &resilience.LatencyTracker{}
	s.mPeerRetries = met.Counter("castd_peer_retries_total",
		"Peer fetch attempts beyond the first, granted by the retry budget.")
	met.CounterFunc("castd_peer_retry_budget_exhausted_total",
		"Retries refused because the global retry budget was empty.",
		func() float64 { return float64(s.retryBudget.Exhausted()) })
	s.mPeerHedges = met.Counter("castd_peer_hedges_total",
		"Hedged artifact fetches launched because the first attempt ran long.")
	s.mPeerHedgeWins = met.Counter("castd_peer_hedge_wins_total",
		"Hedged artifact fetches that answered before the original attempt.")
	s.mDegraded = met.CounterVec("castd_degraded_total",
		"Requests served through a degraded-mode path because the pair's owner was unavailable.",
		"mode")
	breakerState := met.GaugeVec("castd_breaker_state",
		"Per-peer circuit breaker state: 0 closed, 1 half-open, 2 open.", "peer")
	breakerTransitions := met.CounterVec("castd_breaker_transitions_total",
		"Circuit breaker state transitions by peer and destination state.", "peer", "to")
	met.GaugeFunc("castd_artifact_store_degraded",
		"1 while the artifact store is in memory-only degraded mode (disk full or read-only).",
		func() float64 {
			if st := reg.Store(); st != nil && st.Degraded() {
				return 1
			}
			return 0
		})
	if s.cluster != nil {
		s.breakers = map[string]*resilience.Breaker{}
		for _, p := range s.cluster.peers {
			if p == s.cluster.self {
				continue
			}
			peer := p
			stateGauge := breakerState.With(peer)
			stateGauge.Set(int64(resilience.Closed))
			s.breakers[peer] = resilience.NewBreaker(resilience.BreakerConfig{
				FailureThreshold: opts.PeerBreakerFailures,
				Window:           opts.PeerBreakerWindow,
				RateThreshold:    opts.PeerBreakerRate,
				OpenFor:          opts.PeerBreakerOpenFor,
				OnChange: func(from, to resilience.State) {
					stateGauge.Set(int64(to))
					breakerTransitions.With(peer, to.String()).Inc()
				},
			})
		}
	}

	// Peer liveness from the background prober. Standalone daemons render
	// the family with no series (HELP/TYPE only): the label space is the
	// peer list, and a standalone node has none.
	peerUp := met.GaugeVec("castd_peer_up",
		"1 when the peer answered its last health probe, 0 otherwise.", "peer")
	if s.cluster != nil {
		s.startProber(peerUp, opts.PeerProbeInterval)
	}

	// Continuous-profiling ring: capture counters bridge the profiler's own
	// atomics and read zero while no profiler is configured.
	s.profiler = opts.Profiler
	met.CounterFunc("castd_profiles_captured_total",
		"Profiles captured into the /debug/profiles ring.",
		func() float64 { return float64(s.profiler.Stats().Captured) })
	met.CounterFunc("castd_profiles_dropped_total",
		"Profile captures dropped: ring evictions, cooldown suppressions, overlapping CPU requests.",
		func() float64 { return float64(s.profiler.Stats().Dropped) })

	// Hot-pair attribution, bounded to K+1 label sets per family.
	hotK := opts.HotPairK
	if hotK == 0 {
		hotK = DefaultHotPairK
	}
	s.hotPairs = hotpair.New(hotK) // nil (disabled) when hotK < 0
	s.hotPairs.Register(met)

	// Artifact-store families bridge the store's own counters; all zero
	// when the registry runs without -artifact-dir.
	storeStats := func() artifact.StoreStats {
		if st := reg.Store(); st != nil {
			return st.Stats()
		}
		return artifact.StoreStats{}
	}
	met.CounterFunc("artifact_store_hits_total",
		"Artifact-store loads that decoded into a servable pair.",
		func() float64 { return float64(storeStats().Hits) })
	met.CounterFunc("artifact_store_misses_total",
		"Artifact-store lookups that found no blob.",
		func() float64 { return float64(storeStats().Misses) })
	met.CounterFunc("artifact_store_writes_total",
		"Artifact blobs written through to the store.",
		func() float64 { return float64(storeStats().Writes) })
	met.CounterFunc("artifact_store_corrupt_total",
		"Artifact blobs rejected as corrupt or stale and quarantined.",
		func() float64 { return float64(storeStats().Corrupt) })

	// Registry cache families: the compile histogram is fed by the
	// registry's observer hook; the counters and gauges bridge to the
	// registry's own atomics at scrape time.
	compileHist := met.Histogram("registry_compile_seconds",
		"Schema-pair compile latency (relations fixpoints + IDA construction).",
		telemetry.ExponentialBuckets(0.0001, 10, 6))
	reg.SetCompileObserver(compileHist.Observe)
	met.CounterFunc("registry_hits_total", "Pair-cache hits.",
		func() float64 { return float64(reg.Stats().Hits) })
	met.CounterFunc("registry_misses_total", "Pair-cache misses.",
		func() float64 { return float64(reg.Stats().Misses) })
	met.CounterFunc("registry_coalesces_total",
		"Pair requests coalesced onto an in-flight compile (singleflight).",
		func() float64 { return float64(reg.Stats().Coalesces) })
	met.CounterFunc("registry_compiles_total", "Schema-pair compiles.",
		func() float64 { return float64(reg.Stats().Compiles) })
	met.CounterFunc("registry_evictions_total", "Pair-cache evictions.",
		func() float64 { return float64(reg.Stats().Evictions) })
	met.CounterFunc("registry_compile_panics_total",
		"Schema-pair compiles that panicked, were recovered and evicted.",
		func() float64 { return float64(reg.Stats().CompilePanics) })
	met.GaugeFunc("registry_pairs", "Cached compiled pairs.",
		func() float64 { return float64(reg.Stats().Pairs) })
	met.GaugeFunc("registry_schemas", "Registered schema ids.",
		func() float64 { return float64(reg.Stats().Schemas) })
	met.GaugeFunc("registry_cache_bytes", "Approximate pair-cache footprint.",
		func() float64 { return float64(reg.Stats().Bytes) })

	// Build identity and process lifetime, for fleet dashboards ("which
	// revision is each instance running, and since when").
	goVersion, revision := buildIdentity()
	met.GaugeVec("castd_build_info",
		"Build metadata; the value is always 1.", "go_version", "revision").
		With(goVersion, revision).Set(1)
	started := time.Now()
	met.GaugeFunc("castd_uptime_seconds", "Seconds since the server was constructed.",
		func() float64 { return time.Since(started).Seconds() })

	// Tail-sampler economy: how many request traces were started, kept
	// (slow/error/head-sampled) and dropped. Zero throughout when tracing
	// is disabled.
	met.CounterFunc("castd_traces_started_total", "Request traces started.",
		func() float64 { return float64(s.tracer.Stats().Started) })
	met.CounterFunc("castd_traces_retained_total", "Request traces retained by the tail sampler.",
		func() float64 { return float64(s.tracer.Stats().Retained) })
	met.CounterFunc("castd_traces_dropped_total", "Request traces dropped by the tail sampler.",
		func() float64 { return float64(s.tracer.Stats().Dropped) })

	// OTLP export: retained traces and periodic metric snapshots ship to
	// the collector; the exporter's self-accounting families exist at zero
	// even when export is disabled (nil exporter, nil-safe Stats).
	resource := map[string]string{"service.name": "castd"}
	if opts.SelfURL != "" {
		resource["service.instance.id"] = opts.SelfURL
	}
	s.exporter = otlp.New(otlp.Options{
		Endpoint:  opts.OTLPEndpoint,
		Interval:  opts.OTLPInterval,
		QueueSize: opts.OTLPQueue,
		Gather:    met.Gather,
		Resource:  resource,
	})
	s.exporter.Register(met)
	if s.exporter != nil {
		s.tracer.OnRetain(s.exporter.ExportTrace)
	}

	// Work routes are governed (admission control applies); observability
	// routes are not — a saturated server must still answer /healthz and
	// /metrics, or the operator loses sight of it exactly when it matters.
	s.route("PUT /schemas/{id}", "register", true, true, s.handleRegister)
	s.route("GET /schemas/{id}", "schema", true, false, s.handleSchema)
	s.route("POST /cast/{src}/{dst}", "cast", true, true, s.handleCast)
	s.route("POST /cast/{src}/{dst}/batch", "batch", true, true, s.handleBatch)
	s.route("GET /pairs/{src}/{dst}", "pairs", true, true, s.handlePairs)
	// Not governed: a saturated owner must still hand blobs to peers, or
	// overload on one node cascades into cluster-wide recompiles.
	s.route("GET /artifacts/{key}", "artifact", true, false, s.handleArtifact)
	s.route("GET /metrics", "metrics", false, false, s.handlePrometheus)
	s.route("GET /metrics.json", "metrics.json", false, false, s.handleMetricsJSON)
	s.route("GET /debug/fleet", "fleet", false, false, s.handleFleet)
	s.route("GET /debug/traces", "traces", false, false, s.handleTraces)
	s.route("GET /debug/traces/{id}", "trace", false, false, s.handleTrace)
	s.route("GET /debug/profiles", "profiles", false, false, s.handleProfiles)
	s.route("GET /debug/profiles/{id}", "profile", false, false, s.handleProfile)
	s.route("GET /debug/hotpairs", "hotpairs", false, false, s.handleHotpairs)
	s.route("GET /healthz", "healthz", false, false, s.handleHealthz)
	return s
}

// startProber launches the background peer health loop: every peer except
// self gets a castd_peer_up series (resolved once, zero until its first
// probe) refreshed by a GET /healthz round each interval. Probes use a
// context deadline, not the shared client's Timeout, so they never
// interfere with fetch/proxy calls on the same client.
func (s *Server) startProber(up *telemetry.GaugeVec, interval time.Duration) {
	if interval <= 0 {
		interval = DefaultPeerProbeInterval
	}
	type target struct {
		url    string
		gauge  *telemetry.Gauge
		status *peerStatus
	}
	s.peerHealth = map[string]*peerStatus{}
	var targets []target
	for _, p := range s.cluster.peers {
		if p != s.cluster.self {
			st := &peerStatus{}
			s.peerHealth[p] = st
			targets = append(targets, target{url: p, gauge: up.With(p), status: st})
		}
	}
	s.proberStop = make(chan struct{})
	s.proberDone = make(chan struct{})
	probe := func() {
		for _, t := range targets {
			ctx, cancel := context.WithTimeout(context.Background(), interval)
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.url+"/healthz", nil)
			alive := false
			if err == nil {
				if resp, rerr := s.cluster.client.Do(req); rerr == nil {
					// Draining peers answer 503: alive for TCP purposes but
					// about to leave — stop counting on them, like an LB would.
					alive = resp.StatusCode == http.StatusOK
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			cancel()
			if alive {
				t.gauge.Set(1)
			} else {
				t.gauge.Set(0)
			}
			t.status.up.Store(alive)
			t.status.lastProbe.Store(time.Now().UnixNano())
			// Feed the breaker: a live probe closes an open breaker
			// without waiting for user traffic to volunteer as the probe;
			// a dead one keeps it open past its cool-off.
			if br := s.breakers[t.url]; br != nil {
				br.RecordProbe(alive)
			}
		}
	}
	go func() {
		defer close(s.proberDone)
		probe() // immediately, so castd_peer_up converges at startup
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				probe()
			case <-s.proberStop:
				return
			}
		}
	}()
}

// Close stops the server's background goroutines: the peer prober first,
// then the OTLP exporter — whose Close flushes the pending batch plus a
// final metric snapshot, so a drained daemon's last numbers reach the
// collector. Idempotent; does not drain in-flight requests — that is
// http.Server.Shutdown's job (castd runs Shutdown before Close, so the
// final snapshot already includes the stragglers).
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.proberStop != nil {
			close(s.proberStop)
			<-s.proberDone
		}
		s.tracer.OnRetain(nil) // no new exports once the queue is draining
		s.exporter.Close()
	})
}

// buildIdentity reads the build's Go version and VCS revision; "unknown"
// when the binary was built without VCS stamping (tests, go run).
func buildIdentity() (goVersion, revision string) {
	goVersion, revision = runtime.Version(), "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && kv.Value != "" {
				revision = kv.Value
			}
		}
	}
	return goVersion, revision
}

// SetDraining flips the drain flag: while set, /healthz answers 503 so load
// balancers stop routing new work here, while in-flight and late-arriving
// requests still complete normally (castd flips it on SIGTERM, then lets
// http.Server.Shutdown finish the stragglers).
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Metrics returns the server's telemetry registry so embedders can add
// their own families to the same /metrics page.
func (s *Server) Metrics() *telemetry.Registry { return s.met }

// statusWriter captures the response status for the access log and the
// (route, code) counter, and whether a header has been sent — the panic
// recovery path must know if a 500 can still be written.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// Unwrap exposes the underlying writer so http.ResponseController can find
// per-connection controls (the cast handlers set read deadlines).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// route registers one handler under its middleware wrapper. name is the
// static route label — resolved per request, not per element, and never
// derived from the URL (unbounded label cardinality is a metrics leak).
// traced routes get a root span (observability endpoints set it false so
// scraping /debug/traces does not fill the ring being scraped); governed
// routes pass admission control before their handler runs.
//
// The middleware is also the fault boundary: a panicking handler is
// recovered here — counted, logged with its stack under the request's
// trace ids, and answered with a 500 if the header has not been sent — so
// no single request can take the daemon down.
func (s *Server) route(pattern, name string, traced, governed bool, h http.HandlerFunc) {
	duration := s.httpDuration.With(name) // resolve the series once
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		id := s.reqID.Add(1)
		s.inFlight.Inc()
		defer s.inFlight.Dec()
		start := time.Now()

		var span *telemetry.Span
		if traced {
			// A malformed traceparent parses to ok=false and a zero
			// context, which StartRequest treats as "begin a fresh trace".
			parent, _ := telemetry.ParseTraceparent(r.Header.Get("traceparent"))
			span = s.tracer.StartRequest("http "+name, parent)
			if span != nil {
				span.SetAttr("http.method", r.Method)
				span.SetAttr("http.path", r.URL.Path)
				span.SetAttr("http.route", name)
				span.SetAttr("request.id", id)
				// Inject our context so clients (and curl users) can find
				// the request on /debug/traces.
				w.Header().Set("traceparent", telemetry.FormatTraceparent(span.Context()))
				r = r.WithContext(telemetry.ContextWithSpan(r.Context(), span))
			}
		}

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.serve(sw, r, governed, h)
		d := time.Since(start)
		if sc := span.Context(); sc.IsValid() {
			// Traced request: stamp the latency bucket with this trace's
			// identity so a dashboard outlier links to its span tree.
			duration.ObserveExemplar(d.Seconds(), sc.TraceID.String(), sc.SpanID.String(), time.Now())
		} else {
			duration.Observe(d.Seconds())
		}
		s.httpRequests.With(name, strconv.Itoa(sw.status)).Inc()
		if governed {
			// Latency anomaly trigger: only work routes feed it — a slow
			// scrape of /debug/traces is not the hot path's problem.
			s.profiler.ObserveLatency(d)
		}

		span.SetAttr("http.status", sw.status)
		if sw.status >= http.StatusInternalServerError {
			span.SetError(http.StatusText(sw.status))
		}
		span.End()

		if s.accessLog && s.logger != nil {
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.Uint64("req", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", name),
				slog.Int("status", sw.status),
				slog.Duration("dur", d.Round(time.Microsecond)))
		}
	})
}

// serve runs one request through admission control and the panic guard.
// Recovery answers 500 when the header has not gone out yet; either way the
// recovered value and stack are logged under the request's trace ids and
// castd_panics_total moves, so a crash is an alertable, attributable event
// instead of a dead process.
func (s *Server) serve(sw *statusWriter, r *http.Request, governed bool, h http.HandlerFunc) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
			panic(rec) // stdlib convention for deliberately aborting a response
		}
		s.mPanics.Inc()
		// A recovered panic is exactly when a goroutine + heap snapshot is
		// worth having: the wreckage is still on the other goroutines.
		s.profiler.Event(profiling.TriggerPanic)
		if s.logger != nil {
			s.logger.LogAttrs(r.Context(), slog.LevelError, "handler panic",
				slog.String("path", r.URL.Path),
				slog.Any("panic", rec),
				slog.String("stack", string(debug.Stack())))
		}
		if !sw.wrote {
			writeError(sw, http.StatusInternalServerError, "internal error: %v", rec)
		} else {
			// Too late for a clean 500 on the wire; still record it for the
			// (route, code) counter, access log and span error flag.
			sw.status = http.StatusInternalServerError
		}
	}()
	if governed && s.admit != nil {
		wait := time.Now()
		if !s.acquire(r.Context()) {
			s.mShed.Inc()
			s.profiler.Event(profiling.TriggerShed)
			sw.Header().Set("Retry-After", "1")
			writeError(sw, http.StatusTooManyRequests,
				"server is at its -max-in-flight capacity; retry after a short backoff")
			return
		}
		s.mQueueWait.Observe(time.Since(wait).Seconds())
		defer func() { <-s.admit }()
	}
	h(sw, r)
}

// acquire takes an in-flight slot: immediately when one is free, otherwise
// after waiting at most admissionGrace. false means the request is shed —
// bounded queueing rides out bursts without converting overload into an
// unbounded goroutine pileup.
func (s *Server) acquire(ctx context.Context) bool {
	select {
	case s.admit <- struct{}{}:
		return true
	default:
	}
	t := time.NewTimer(admissionGrace)
	defer t.Stop()
	select {
	case s.admit <- struct{}{}:
		return true
	case <-t.C:
		return false
	case <-ctx.Done():
		return false
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// pair resolves a (src, dst) id pair, mapping registry errors to HTTP
// statuses (404 unknown id, 422 uncompilable pair). The lookup runs under
// a "registry.lookup" child span whose outcome attribute distinguishes
// hit, miss (this request paid the compile) and coalesce (this request
// waited on another's compile — linked to the compiler's span).
func (s *Server) pair(w http.ResponseWriter, r *http.Request) (*registry.Pair, bool) {
	src, dst := r.PathValue("src"), r.PathValue("dst")
	if s.cluster != nil && r.Header.Get(forwardedHeader) == "" {
		p, handled := s.clusterPair(w, r, src, dst)
		if handled {
			return nil, false
		}
		if p != nil {
			return p, true
		}
	}
	sp := telemetry.SpanFromContext(r.Context()).StartChild("registry.lookup")
	sp.SetAttr("src", src)
	sp.SetAttr("dst", dst)
	ctx := telemetry.ContextWithSpan(r.Context(), sp)
	p, lk, err := s.reg.PairCtx(ctx, src, dst)
	if lk.Outcome != "" {
		sp.SetAttr("outcome", lk.Outcome)
	}
	sp.AddLink(lk.Compiler)
	if p != nil && lk.Outcome == registry.LookupMiss {
		sp.SetAttr("compile_ns", p.CompileTime.Nanoseconds())
	}
	if err != nil {
		sp.SetError(err.Error())
	}
	sp.End()
	if err != nil {
		var unknown *registry.UnknownSchemaError
		var compPanic *registry.CompilePanicError
		switch {
		case errors.As(err, &unknown):
			writeError(w, http.StatusNotFound, "%v", err)
		case errors.As(err, &compPanic):
			// A compiler bug, not a client error: the registry recovered
			// the panic and evicted the entry, so a retry recompiles.
			writeError(w, http.StatusInternalServerError, "%v", err)
		default:
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
		}
		return nil, false
	}
	return p, true
}

// castContext derives the context a cast or batch request validates under.
// The deadline covers the whole request; it is mirrored onto the
// connection's read deadline because the walker's amortized ctx polls can
// only fire between tokens — a client that stops sending blocks the decoder
// inside Read, where only the connection deadline can reach it (the failed
// read surfaces as os.ErrDeadlineExceeded and maps to 408).
func (s *Server) castContext(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc) {
	timeout := s.castTimeout
	// Deadline propagation: a proxied request carries the forwarding
	// node's remaining budget; honor it when tighter than our own, so the
	// caller's -cast-timeout bounds the whole peer chain instead of
	// resetting per hop.
	if v := r.Header.Get(deadlineHeader); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			if d := time.Duration(ms) * time.Millisecond; timeout <= 0 || d < timeout {
				timeout = d
			}
		}
	}
	if timeout <= 0 {
		return r.Context(), func() {}
	}
	// Best effort: test recorders don't implement deadlines, real
	// connections do.
	http.NewResponseController(w).SetReadDeadline(time.Now().Add(timeout))
	return context.WithTimeout(r.Context(), timeout)
}

// governanceStatus maps a validation error produced by a resource limit to
// its HTTP status: 408 when the deadline (context or connection read)
// expired or the client went away, 413 when the body outgrew -max-doc-bytes,
// 422 when the document exceeded a structural limit. ok=false means the
// error is an ordinary verdict, not a governance rejection.
func governanceStatus(err error) (status int, ok bool) {
	var maxBytes *http.MaxBytesError
	var limit *revalidate.LimitError
	switch {
	case err == nil:
		return 0, false
	case errors.As(err, &maxBytes):
		return http.StatusRequestEntityTooLarge, true
	case errors.As(err, &limit):
		return http.StatusUnprocessableEntity, true
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, os.ErrDeadlineExceeded):
		return http.StatusRequestTimeout, true
	case errors.Is(err, context.Canceled):
		// The client canceled (connection closed); 408 tells the access
		// log the server did not fail the request.
		return http.StatusRequestTimeout, true
	}
	return 0, false
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	s.reqRegister.Add(1)
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSchemaBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxSchemaBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "schema exceeds %d bytes", maxSchemaBytes)
		return
	}
	format := registry.Format(r.URL.Query().Get("format"))
	switch format {
	case registry.FormatAuto, registry.FormatXSD, registry.FormatDTD:
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want xsd or dtd)", format)
		return
	}
	sp := telemetry.SpanFromContext(r.Context()).StartChild("registry.register")
	sp.SetAttr("schema.id", r.PathValue("id"))
	sp.SetAttr("schema.bytes", len(body))
	e, err := s.reg.RegisterCtx(telemetry.ContextWithSpan(r.Context(), sp),
		r.PathValue("id"), string(body), format, r.URL.Query().Get("root"))
	if err != nil {
		sp.SetError(err.Error())
		sp.End()
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	sp.SetAttr("schema.hash", e.Hash)
	sp.End()
	writeJSON(w, http.StatusOK, e)
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.Schema(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown schema id %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, e)
}

// workRow is one counter of the work record as castd exports it: the
// cumulative Prometheus family it adds to, and the attribute it sets on
// the cast.validate and cast.batch spans (recordStats does both). The
// per-request JSON body is the record itself (statsBody), so its keys
// follow the work.Counters tags.
type workRow struct {
	field  func(*work.Counters) *int64
	family string
	help   string
	attr   string
}

// workRows is castd's one counter table. MaxDepth has no row: a
// cumulative max depth is not a counter, so it appears only per request.
var workRows = []workRow{
	{func(c *work.Counters) *int64 { return &c.ElementsVisited }, "cast_elements_visited_total",
		"Elements that received validation work.", "elements.visited"},
	{func(c *work.Counters) *int64 { return &c.ElementsSkimmed }, "cast_elements_skimmed_total",
		"Elements consumed inside subsumed subtrees with no validation work.", "elements.skimmed"},
	{func(c *work.Counters) *int64 { return &c.SubsumedSkips }, "cast_subtrees_skipped_total",
		"Subtrees skipped because the (source, target) type pair is subsumed.", "subtrees.skipped"},
	{func(c *work.Counters) *int64 { return &c.DisjointRejects }, "cast_subtrees_rejected_total",
		"Rejections due to disjoint (source, target) type pairs.", "subtrees.rejected"},
	{func(c *work.Counters) *int64 { return &c.AutomatonSteps }, "cast_symbols_scanned_total",
		"Content-model symbols scanned (automaton transitions taken).", "symbols.scanned"},
	{func(c *work.Counters) *int64 { return &c.SymbolsSkipped }, "cast_symbols_skipped_total",
		"Content-model symbols skipped after an immediate decision.", "symbols.skipped"},
	{func(c *work.Counters) *int64 { return &c.ValuesChecked }, "cast_values_checked_total",
		"Simple values tested against target facets.", "values.checked"},
}

// statsBody is the JSON shape of a request's work: the work record (the
// stream fills no tree-only field, so those keys are omitted) plus its
// work-saved ratio.
type statsBody struct {
	work.Counters
	WorkSavedRatio float64 `json:"workSavedRatio"`
}

// recordPair attributes one cast's wall-clock cost and work economy to its
// schema pair in the bounded hot-pair table. The label is the pair
// artifact key's first 12 hex digits: content-addressed (stable across
// nodes and schema renames) and short enough for dashboards.
func (s *Server) recordPair(p *registry.Pair, d time.Duration, st revalidate.StreamStats, casts int64) {
	if s.hotPairs == nil || p == nil || p.Src == nil || p.Dst == nil {
		return
	}
	s.hotPairs.Observe(p.Key[:12], p.Src.ID, p.Dst.ID, hotpair.Stats{Casts: casts, Seconds: d.Seconds(), Counters: st})
}

// recordStats adds the request's work in body to every table family,
// sets it on the request's cast span when traced, and fills in body's
// work-saved ratio: one pass over the table per request — the engines
// never touch telemetry mid-validation. body is the response's own stats
// field, so the table's pointer accessors cost no copy of the record.
func (s *Server) recordStats(sp *telemetry.Span, body *statsBody) {
	for i, row := range workRows {
		v := *row.field(&body.Counters)
		s.workFamilies[i].Add(v)
		if sp != nil {
			sp.SetAttr(row.attr, v)
		}
	}
	body.WorkSavedRatio = body.Counters.WorkSavedRatio()
}

type castResponse struct {
	Valid bool      `json:"valid"`
	Error string    `json:"error,omitempty"`
	Stats statsBody `json:"stats"`
	// Trace holds the decision events when the request asked ?explain=1.
	Trace []revalidate.TraceEvent `json:"trace,omitempty"`
}

func (s *Server) handleCast(w http.ResponseWriter, r *http.Request) {
	s.reqCast.Add(1)
	p, ok := s.pair(w, r)
	if !ok {
		return
	}
	// Query() builds a map; most casts carry no query at all.
	explain := r.URL.RawQuery != "" && r.URL.Query().Get("explain") == "1"
	ctx, cancel := s.castContext(w, r)
	defer cancel()
	// The request body streams straight through the caster: O(depth)
	// memory however large the document (trace mode additionally holds the
	// decision events). MaxBytesReader bounds the bytes one document may
	// push through that stream; the faultinject seam is a no-op unless the
	// operator armed -fault-inject. One span covers the whole cast;
	// per-element work stays in the request-scoped Stats struct and is
	// attached as span attributes afterwards.
	body := io.Reader(r.Body)
	if s.maxDocBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.maxDocBytes)
	}
	body = faultinject.Reader(body)
	sp := telemetry.SpanFromContext(r.Context()).StartChild("cast.validate")
	var (
		st    revalidate.StreamStats
		trace []revalidate.TraceEvent
		err   error
	)
	castStart := time.Now()
	if explain {
		st, trace, err = p.Stream.ValidateTracedContext(ctx, body, s.limits)
	} else {
		st, err = p.Stream.ValidateContext(ctx, body, s.limits)
	}
	castDur := time.Since(castStart)
	s.recordPair(p, castDur, st, 1)
	s.observeCast(castDur, sp)
	resp := &castResponse{Valid: err == nil, Stats: statsBody{Counters: st}, Trace: trace}
	s.recordStats(sp, &resp.Stats)
	annotateCastSpan(sp, trace, err)
	sp.End()
	if status, governed := governanceStatus(err); governed {
		// A governance rejection is not a validity verdict: the cast was
		// cut short, so neither valid nor invalid moves — the structured
		// error names the limit that fired.
		writeError(w, status, "%v", err)
		return
	}
	if err != nil {
		s.verdictInvalid.Add(1)
		s.verdicts.With("invalid").Inc()
		resp.Error = err.Error()
	} else {
		s.verdictValid.Add(1)
		s.verdicts.With("valid").Inc()
	}
	writeJSON(w, http.StatusOK, resp)
}

// observeCast feeds the cast-latency histogram, carrying the cast span's
// trace identity as the bucket exemplar when the request is traced.
func (s *Server) observeCast(d time.Duration, sp *telemetry.Span) {
	if sc := sp.Context(); sc.IsValid() {
		s.castDuration.ObserveExemplar(d.Seconds(), sc.TraceID.String(), sc.SpanID.String(), time.Now())
		return
	}
	s.castDuration.Observe(d.Seconds())
}

// annotateCastSpan attaches one cast's verdict to its span, plus the
// decision-trace events when the request asked for ?explain=1. An invalid
// document is a verdict, not a span error — the tail sampler should not
// retain every rejection, only requests the daemon itself failed.
func annotateCastSpan(sp *telemetry.Span, trace []revalidate.TraceEvent, err error) {
	if sp == nil {
		return
	}
	verdict := "valid"
	if err != nil {
		verdict = "invalid"
	}
	sp.SetAttr("verdict", verdict)
	for _, ev := range trace {
		sp.AddEvent(ev.Action,
			telemetry.Attr{Key: "path", Value: ev.Path},
			telemetry.Attr{Key: "dewey", Value: ev.Dewey},
			telemetry.Attr{Key: "src_type", Value: ev.SrcType},
			telemetry.Attr{Key: "dst_type", Value: ev.DstType},
			telemetry.Attr{Key: "detail", Value: ev.Detail})
	}
}

type batchResponse struct {
	Count   int `json:"count"`
	Valid   int `json:"valid"`
	Invalid int `json:"invalid"`
	// Verdicts holds one entry per document: null when valid, the
	// rejection reason otherwise.
	Verdicts []*string `json:"verdicts"`
	Stats    statsBody `json:"stats"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.reqBatch.Add(1)
	p, ok := s.pair(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.castContext(w, r)
	defer cancel()
	var docs []string
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBytes))
	if err := dec.Decode(&docs); err != nil {
		if status, governed := governanceStatus(err); governed {
			writeError(w, status, "batch body: %v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "batch body must be a JSON array of XML documents: %v", err)
		return
	}
	workers := s.workers
	if v := r.URL.Query().Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "workers: %v", err)
			return
		}
		workers = n
	}
	// Per-document byte limit: an oversized batch entry gets a verdict for
	// its own slot without ever reaching a worker, mirroring what 413 does
	// for a single cast while the rest of the batch proceeds.
	errs := make([]error, len(docs))
	var keep []int
	var readers []io.Reader
	for i, d := range docs {
		if s.maxDocBytes > 0 && int64(len(d)) > s.maxDocBytes {
			errs[i] = fmt.Errorf("document is %d bytes, over the per-document limit (%d)",
				len(d), s.maxDocBytes)
			continue
		}
		keep = append(keep, i)
		readers = append(readers, faultinject.Reader(strings.NewReader(d)))
	}
	sp := telemetry.SpanFromContext(r.Context()).StartChild("cast.batch")
	sp.SetAttr("docs", len(docs))
	sp.SetAttr("workers", workers)
	castStart := time.Now()
	kept, st := p.Stream.ValidateAllContext(ctx, readers, workers, s.limits)
	castDur := time.Since(castStart)
	s.recordPair(p, castDur, st, int64(len(keep)))
	s.observeCast(castDur, sp)
	for j, i := range keep {
		errs[i] = kept[j]
	}
	resp := &batchResponse{Count: len(docs), Verdicts: make([]*string, len(docs)), Stats: statsBody{Counters: st}}
	s.recordStats(sp, &resp.Stats)
	sp.End()
	if ctx.Err() != nil {
		// The deadline or client cut the batch short: unclaimed slots carry
		// the context's cause, so per-document verdicts would conflate
		// "invalid" with "never looked at". Fail the whole request instead.
		writeError(w, http.StatusRequestTimeout, "batch aborted: %v", context.Cause(ctx))
		return
	}
	for i, err := range errs {
		if err != nil {
			var pe *revalidate.PanicError
			if errors.As(err, &pe) {
				// A contained worker panic is a server fault on one slot:
				// count it and log the stack, but keep the slot's verdict
				// structured like any other rejection.
				s.mPanics.Inc()
				if s.logger != nil {
					s.logger.LogAttrs(r.Context(), slog.LevelError, "batch slot panic",
						slog.Int("doc", i),
						slog.Any("panic", pe.Value),
						slog.String("stack", string(pe.Stack)))
				}
			}
			msg := err.Error()
			resp.Verdicts[i] = &msg
			resp.Invalid++
		} else {
			resp.Valid++
		}
	}
	s.verdictValid.Add(int64(resp.Valid))
	s.verdictInvalid.Add(int64(resp.Invalid))
	s.verdicts.With("valid").Add(int64(resp.Valid))
	s.verdicts.With("invalid").Add(int64(resp.Invalid))
	writeJSON(w, http.StatusOK, resp)
}

type pairsResponse struct {
	Src       *registry.SchemaEntry `json:"src"`
	Dst       *registry.SchemaEntry `json:"dst"`
	Report    revalidate.PairReport `json:"report"`
	CompileNS int64                 `json:"compileNS"`
}

func (s *Server) handlePairs(w http.ResponseWriter, r *http.Request) {
	s.reqPairs.Add(1)
	p, ok := s.pair(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, pairsResponse{
		Src:       p.Src,
		Dst:       p.Dst,
		Report:    p.Report,
		CompileNS: int64(p.CompileTime),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ok\n")
}

func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	ct := telemetry.NegotiateExposition(r.Header.Get("Accept"))
	w.Header().Set("Content-Type", ct)
	if ct == telemetry.ContentTypeOpenMetrics {
		s.met.WriteOpenMetrics(w)
		return
	}
	s.met.WritePrometheus(w)
}

type metricsBody struct {
	Requests struct {
		Register int64 `json:"register"`
		Cast     int64 `json:"cast"`
		Batch    int64 `json:"batch"`
		Pairs    int64 `json:"pairs"`
	} `json:"requests"`
	Verdicts struct {
		Valid   int64 `json:"valid"`
		Invalid int64 `json:"invalid"`
	} `json:"verdicts"`
	Stream streamTotals   `json:"stream"`
	Cache  registry.Stats `json:"cache"`
	// Families is the full registry snapshot — every family the text
	// exposition renders, including the scrape-time callback families
	// (hot-pair attribution, registry bridges) that the legacy fields
	// above never covered. /debug/fleet merges peers from this field.
	Families []telemetry.FamilySnapshot `json:"families"`
}

// streamTotals is /metrics.json's stream object: the table counters read
// back from their families, so the JSON and /metrics cannot disagree. No
// family keeps a cumulative MaxDepth, so the key is left out: the
// shallower, always-zero omitempty field hides the embedded one.
type streamTotals struct {
	statsBody
	MaxDepth int64 `json:"maxDepth,omitempty"`
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	var m metricsBody
	m.Requests.Register = s.reqRegister.Load()
	m.Requests.Cast = s.reqCast.Load()
	m.Requests.Batch = s.reqBatch.Load()
	m.Requests.Pairs = s.reqPairs.Load()
	m.Verdicts.Valid = s.verdictValid.Load()
	m.Verdicts.Invalid = s.verdictInvalid.Load()
	var st work.Counters
	for i, row := range workRows {
		*row.field(&st) = s.workFamilies[i].Value()
	}
	m.Stream.statsBody = statsBody{st, st.WorkSavedRatio()}
	m.Cache = s.reg.Stats()
	m.Families = s.met.Gather()
	writeJSON(w, http.StatusOK, m)
}
