// Cluster routing for castd: every compiled (source, target) pair key is
// owned by exactly one member, chosen by rendezvous hashing over the peer
// list, so the cluster pays each pair's preprocessing once no matter which
// node a cast lands on. A non-owner resolves a pair in this order:
//
//  1. its own warm cache (a pair already installed serves locally forever);
//  2. GET /artifacts/{key} from the owner — one blob transfer, after which
//     this node casts locally at full speed;
//  3. proxying the whole request to the owner (first request for a pair the
//     owner has not compiled yet: the proxy makes the owner compile it, and
//     the next request here succeeds via 2);
//  4. if the owner is unreachable, compiling locally — availability beats
//     the once-per-cluster economy when a peer is down.
//
// Forwarded requests carry a loop-guard header; a receiving node serves
// them locally unconditionally, so disagreeing peer lists degrade into an
// extra compile, never a proxy loop.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/artifact"
	"repro/internal/faultinject"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// handleArtifact serves GET /artifacts/{key}: the compiled pair blob for a
// peer (or any client warming a cache). 404 when this node holds neither a
// stored blob nor an in-memory pair under the key.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	blob, err := s.reg.ArtifactBlob(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(blob)
}

// forwardedHeader marks a request already proxied once; the receiver must
// answer locally.
const forwardedHeader = "X-Castd-Forwarded"

// deadlineHeader carries the forwarding node's remaining request budget in
// milliseconds, so the receiving hop validates under the caller's deadline
// instead of restarting its own -cast-timeout from zero.
const deadlineHeader = "X-Castd-Deadline"

// Retry backoff bounds for failed peer fetches (full jitter in between).
const (
	retryBackoffBase = 25 * time.Millisecond
	retryBackoffMax  = time.Second
)

// errPeerNotFound reports a clean 404 from the owner: it is alive but has
// not compiled the pair, so proxying to it is the right next step.
var errPeerNotFound = errors.New("peer has no artifact")

// maxDrainBytes bounds how much of an unwanted peer response body is read
// so that its connection can be reused.
const maxDrainBytes = 4 << 10

// errBreakerOpen reports a call refused locally because the peer's circuit
// breaker is open — no packet was sent; the degraded-mode policy decides
// what the client gets.
var errBreakerOpen = errors.New("peer circuit breaker open")

type cluster struct {
	self   string
	peers  []string // normalized; includes self
	client *http.Client
}

// newCluster normalizes the peer list; nil (clustering disabled) unless
// both self and at least one peer are configured. The shared client's
// transport runs through the fault-injection seam, so chaos smokes can
// partition, slow or flap all outbound peer traffic — fetches, proxies and
// health probes alike — with one directive.
func newCluster(self string, peers []string) *cluster {
	if self == "" || len(peers) == 0 {
		return nil
	}
	c := &cluster{self: normalizePeer(self), client: &http.Client{Transport: faultinject.PeerTransport(nil)}}
	seen := map[string]bool{}
	for _, p := range append(peers, self) {
		if p = normalizePeer(p); p != "" && !seen[p] {
			seen[p] = true
			c.peers = append(c.peers, p)
		}
	}
	if len(c.peers) < 2 {
		return nil // a cluster of one routes everything locally anyway
	}
	return c
}

func normalizePeer(u string) string {
	for len(u) > 0 && u[len(u)-1] == '/' {
		u = u[:len(u)-1]
	}
	return u
}

// owner picks the pair key's owning peer by rendezvous (highest-random-
// weight) hashing: every node scores each peer against the key and takes
// the maximum, so all nodes agree without coordination, and removing one
// peer only remaps the keys it owned.
func (c *cluster) owner(key string) string {
	var best string
	var bestScore [sha256.Size]byte
	for _, p := range c.peers {
		score := sha256.Sum256([]byte(p + "\x00" + key))
		if best == "" || bytes.Compare(score[:], bestScore[:]) > 0 {
			best, bestScore = p, score
		}
	}
	return best
}

// fetchArtifact downloads one blob from a peer under a client span. The
// outbound request inherits the caller's context (the per-attempt timeout
// and request deadline are applied by fetchResilient; a hung-up client
// cancels the fetch) and carries the span's traceparent — the peer's
// artifact route joins the same trace, so the cross-node hop shows as one
// waterfall on /debug/traces. A 404 maps to errPeerNotFound; anything else
// non-200 or transport-level is a peer error.
func (c *cluster) fetchArtifact(ctx context.Context, owner, key string) ([]byte, error) {
	sp := telemetry.SpanFromContext(ctx).StartChild("peer.fetch")
	sp.SetAttr("peer", owner)
	sp.SetAttr("artifact.key", key)
	blob, err := c.doFetch(ctx, sp, owner, key)
	switch {
	case err == nil:
		sp.SetAttr("outcome", "ok")
		sp.SetAttr("artifact.bytes", len(blob))
	case errors.Is(err, errPeerNotFound):
		// Not a failure: the owner is alive, it just has not compiled the
		// pair yet. The span records the outcome without tripping the tail
		// sampler's always-keep-errors rule.
		sp.SetAttr("outcome", "not-found")
	default:
		sp.SetAttr("outcome", "error")
		sp.SetError(err.Error())
	}
	sp.End()
	return blob, err
}

func (c *cluster) doFetch(ctx context.Context, sp *telemetry.Span, owner, key string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+"/artifacts/"+key, nil)
	if err != nil {
		return nil, err
	}
	if sc := sp.Context(); sc.IsValid() {
		req.Header.Set("traceparent", telemetry.FormatTraceparent(sc))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		// A body closed unread closes its connection, so the proxy that
		// follows a 404 would dial afresh. Drain a short error body to keep
		// the connection; a longer one is not worth waiting for.
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrainBytes))
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		return nil, errPeerNotFound
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s: artifact fetch returned %s", owner, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// breakerFor returns the peer's circuit breaker (nil on single nodes or
// for self — callers treat nil as "always allowed").
func (s *Server) breakerFor(peer string) *resilience.Breaker { return s.breakers[peer] }

// hedgePeer picks the hedge target for a fetch whose primary goes to
// owner: another peer the prober last saw up (any member that resolved the
// pair earlier can serve its artifact), falling back to a second
// connection to the owner itself when the cluster has no third node.
func (s *Server) hedgePeer(owner string) string {
	for _, p := range s.cluster.peers {
		if p == s.cluster.self || p == owner {
			continue
		}
		if st := s.peerHealth[p]; st != nil && st.up.Load() {
			return p
		}
	}
	return owner
}

// hedgeDelay is how long a fetch waits before launching its hedge: the
// configured floor, raised to the observed p95 so a naturally-slower
// network does not hedge every request. 0 disables hedging.
func (s *Server) hedgeDelay() time.Duration {
	d := s.hedgeAfter
	if d <= 0 {
		return 0
	}
	if p95 := s.fetchLat.Percentile(0.95); p95 > d {
		d = p95
	}
	return d
}

// fetchOnce is one fetch attempt: bounded by the per-attempt peer timeout
// (itself capped by the caller's deadline) and hedged against another warm
// peer once the attempt outlives the hedge delay. First response wins; the
// loser's context is cancelled.
func (s *Server) fetchOnce(ctx context.Context, owner, key string) ([]byte, error) {
	actx, cancel := context.WithTimeout(ctx, s.peerTimeout)
	defer cancel()
	delay := s.hedgeDelay()
	if delay <= 0 {
		return s.cluster.fetchArtifact(actx, owner, key)
	}
	hedge := s.hedgePeer(owner)
	blob, err, hedged := resilience.Hedge(actx, delay,
		func(c context.Context) ([]byte, error) { return s.cluster.fetchArtifact(c, owner, key) },
		func(c context.Context) ([]byte, error) { return s.cluster.fetchArtifact(c, hedge, key) },
		s.mPeerHedges.Inc,
	)
	if hedged && err == nil {
		s.mPeerHedgeWins.Inc()
	}
	return blob, err
}

// fetchResilient is the artifact fetch with the full failure story wrapped
// around it: admission through the owner's circuit breaker (errBreakerOpen
// without a packet sent when open), bounded retries with exponential
// backoff + full jitter, each granted by the global retry budget so a sick
// peer can never amplify traffic cluster-wide, and per-attempt hedging.
// A 404 (errPeerNotFound) counts as breaker success — the peer answered.
func (s *Server) fetchResilient(ctx context.Context, owner, key string) ([]byte, error) {
	br := s.breakerFor(owner)
	s.retryBudget.Deposit()
	for attempt := 0; ; attempt++ {
		if br != nil && !br.Allow() {
			return nil, errBreakerOpen
		}
		start := time.Now()
		blob, err := s.fetchOnce(ctx, owner, key)
		ok := err == nil || errors.Is(err, errPeerNotFound)
		if br != nil {
			br.Record(ok)
		}
		if ok {
			s.fetchLat.Observe(time.Since(start))
			return blob, err
		}
		if ctx.Err() != nil || attempt >= s.peerRetries || !s.retryBudget.Withdraw() {
			return nil, err
		}
		s.mPeerRetries.Inc()
		select {
		case <-time.After(resilience.Backoff(attempt, retryBackoffBase, retryBackoffMax, nil)):
		case <-ctx.Done():
			return nil, err
		}
	}
}

// degradeServe applies the -degraded-mode policy after the owner proved
// unavailable (breaker open, fetch attempts exhausted, or proxy failed
// with a rewindable body). Returns in clusterPair's convention.
func (s *Server) degradeServe(w http.ResponseWriter, r *http.Request, srcID, dstID, owner string) (*registry.Pair, bool) {
	telemetry.SpanFromContext(r.Context()).SetAttr("cluster.via", "degraded")
	switch s.degradedMode {
	case DegradedModeStale:
		if p, ok := s.reg.DiskPair(r.Context(), srcID, dstID); ok {
			s.mDegraded.With("stale").Inc()
			return p, false
		}
		// Nothing stale to serve; fail fast rather than compile.
		fallthrough
	case DegradedModeFail:
		s.mDegraded.With("fail").Inc()
		retryAfter := time.Second
		if br := s.breakerFor(owner); br != nil {
			retryAfter = br.RetryAfter()
		}
		w.Header().Set("Retry-After", strconv.Itoa(int((retryAfter+time.Second-1)/time.Second)))
		writeError(w, http.StatusServiceUnavailable,
			"pair owner %s unavailable (degraded-mode=%s)", owner, s.degradedMode)
		return nil, true
	default:
		// Local compile: availability wins, and the pair lands in this
		// node's cache so the outage costs one extra compile.
		s.mDegraded.With("local-compile").Inc()
		return nil, false
	}
}

// bufferBody replaces the request body with an in-memory copy (bounded by
// -max-doc-bytes) so the proxy can consume it and a proxy failure can
// still rewind and fail over to the degraded-mode path. Returns the copy
// and true, or (nil, false) when the body cannot be fully buffered — it is
// then streamed as before (prefix + remainder) and a failed proxy is
// unrecoverable, exactly the old behavior.
func (s *Server) bufferBody(r *http.Request) ([]byte, bool) {
	if r.Body == nil || r.Body == http.NoBody {
		return nil, true
	}
	var buf bytes.Buffer
	if s.maxDocBytes > 0 {
		if _, err := io.Copy(&buf, io.LimitReader(r.Body, s.maxDocBytes+1)); err != nil {
			r.Body = &stitchedBody{head: bytes.NewReader(buf.Bytes()), err: err, closer: r.Body}
			return nil, false
		}
		if int64(buf.Len()) > s.maxDocBytes {
			// Larger than any handler accepts; let the peer answer 413.
			r.Body = &stitchedBody{head: bytes.NewReader(buf.Bytes()), tail: r.Body, closer: r.Body}
			return nil, false
		}
	} else if _, err := io.Copy(&buf, r.Body); err != nil {
		r.Body = &stitchedBody{head: bytes.NewReader(buf.Bytes()), err: err, closer: r.Body}
		return nil, false
	}
	r.Body.Close()
	s.rewindBody(r, buf.Bytes())
	return buf.Bytes(), true
}

// rewindBody points the request body at the buffered copy again.
func (s *Server) rewindBody(r *http.Request, body []byte) {
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
}

// stitchedBody replays a consumed prefix ahead of the live remainder (or a
// read error), for bodies too large to buffer.
type stitchedBody struct {
	head   *bytes.Reader
	tail   io.Reader
	err    error
	closer io.Closer
}

func (sb *stitchedBody) Read(p []byte) (int, error) {
	if sb.head.Len() > 0 {
		return sb.head.Read(p)
	}
	if sb.tail != nil {
		return sb.tail.Read(p)
	}
	if sb.err != nil {
		return 0, sb.err
	}
	return 0, io.EOF
}

func (sb *stitchedBody) Close() error {
	if sb.closer != nil {
		return sb.closer.Close()
	}
	return nil
}

// clusterPair routes one pair-resolving request ((src, dst) already parsed
// from the path) through the cluster. Returns (pair, false) when the
// caller should serve locally with pair; (nil, false) when the caller
// should fall through to its normal local lookup (owner here, schemas
// unknown, or degraded-mode local compile); (nil, true) when the response
// has already been written (proxied, degraded 503, or proxy failure
// reported).
func (s *Server) clusterPair(w http.ResponseWriter, r *http.Request, srcID, dstID string) (*registry.Pair, bool) {
	src, ok := s.reg.Schema(srcID)
	if !ok {
		return nil, false // local lookup produces the 404
	}
	dst, ok := s.reg.Schema(dstID)
	if !ok {
		return nil, false
	}
	key := artifact.Key(src.Hash, dst.Hash)
	owner := s.cluster.owner(key)
	sp := telemetry.SpanFromContext(r.Context())
	sp.SetAttr("cluster.owner", owner)
	if owner == s.cluster.self {
		return nil, false
	}
	if p, ok := s.reg.CachedPair(srcID, dstID); ok {
		// Installed (or compiled under fallback) earlier: no peer traffic.
		return p, false
	}

	// One deadline bounds every peer operation for this request — all
	// fetch attempts, hedges, and the proxy hop together — so -cast-timeout
	// caps the chain instead of each stage restarting the clock.
	ctx := r.Context()
	cancel := func() {}
	if _, bounded := ctx.Deadline(); !bounded && s.castTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.castTimeout)
	}
	defer cancel()

	fetchStart := time.Now()
	blob, err := s.fetchResilient(ctx, owner, key)
	switch {
	case err == nil:
		// The fetch round trip is part of what the pair cost this node,
		// so the cache weighs it when choosing what to keep.
		p, ierr := s.reg.InstallArtifact(r.Context(), srcID, dstID, blob, time.Since(fetchStart))
		if ierr == nil {
			s.mPeerFetch.Inc()
			sp.SetAttr("cluster.via", "fetch")
			return p, false
		}
		// A blob this node cannot use (owner on a different build, say):
		// proxying still gets the client a verdict.
		s.mPeerErrors.Inc()
		s.logPeer(r, "artifact install failed, proxying", owner, ierr)
	case errors.Is(err, errPeerNotFound):
		// Owner is alive but has not compiled the pair; the proxied request
		// below makes it compile once for the whole cluster.
	case errors.Is(err, errBreakerOpen):
		// Refused locally, no packet sent: the fast path of an outage.
		return s.degradeServe(w, r, srcID, dstID, owner)
	default:
		// Owner unreachable after retries: the degradation policy decides.
		s.mPeerErrors.Inc()
		s.logPeer(r, "peer fetch failed", owner, err)
		return s.degradeServe(w, r, srcID, dstID, owner)
	}

	// Buffer the body (bounded by -max-doc-bytes) before proxying, so a
	// mid-flight proxy failure can rewind and fail over instead of dying
	// on a half-consumed body.
	body, rewindable := s.bufferBody(r)
	br := s.breakerFor(owner)
	if br != nil && !br.Allow() {
		// The owner's breaker opened between fetch and proxy.
		return s.degradeServe(w, r, srcID, dstID, owner)
	}
	s.mPeerForwards.Inc()
	sp.SetAttr("cluster.via", "proxy")
	perr := s.proxyToPeer(ctx, w, r, owner)
	if br != nil {
		br.Record(perr == nil)
	}
	if perr != nil {
		s.mPeerErrors.Inc()
		s.logPeer(r, "proxy failed", owner, perr)
		if rewindable {
			s.rewindBody(r, body)
			return s.degradeServe(w, r, srcID, dstID, owner)
		}
		// The streamed body is partially consumed; a local retry could
		// mis-validate, so report the failure instead.
		writeError(w, http.StatusBadGateway, "proxying to pair owner %s: %v", owner, perr)
	}
	return nil, true
}

// proxyToPeer replays the request against the owner under a client span
// and streams the response back. The loop-guard header makes the owner
// answer locally. The outbound request uses the routing context (request
// deadline included, so the client's budget and disconnect propagate to
// the peer call); its traceparent is overwritten with the proxy span's own
// context (the header clone carries the client's original value, which
// would make the owner's root span a sibling of ours instead of a child —
// the waterfall must read client → proxy hop → owner).
func (s *Server) proxyToPeer(ctx context.Context, w http.ResponseWriter, r *http.Request, owner string) error {
	sp := telemetry.SpanFromContext(r.Context()).StartChild("peer.proxy")
	sp.SetAttr("peer", owner)
	status, err := s.doProxy(ctx, w, r, sp, owner)
	if err != nil {
		sp.SetAttr("outcome", "error")
		sp.SetError(err.Error())
	} else {
		sp.SetAttr("outcome", "ok")
		sp.SetAttr("http.status", status)
	}
	sp.End()
	return err
}

func (s *Server) doProxy(ctx context.Context, w http.ResponseWriter, r *http.Request, sp *telemetry.Span, owner string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, r.Method, owner+r.URL.RequestURI(), r.Body)
	if err != nil {
		return 0, err
	}
	if r.ContentLength >= 0 {
		req.ContentLength = r.ContentLength
	}
	req.Header = r.Header.Clone()
	req.Header.Set(forwardedHeader, "1")
	// Deadline propagation: hand the peer our remaining budget so its
	// -cast-timeout cannot restart the clock mid-chain.
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(deadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	if sc := sp.Context(); sc.IsValid() {
		req.Header.Set("traceparent", telemetry.FormatTraceparent(sc))
	}
	resp, err := s.cluster.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		if k == "Traceparent" {
			// The peer's inject would clobber this node's own response
			// header; the client should see the span it actually talked to.
			continue
		}
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return resp.StatusCode, nil
}

func (s *Server) logPeer(r *http.Request, msg, owner string, err error) {
	if s.logger == nil {
		return
	}
	s.logger.LogAttrs(r.Context(), slog.LevelWarn, "cluster: "+msg,
		slog.String("peer", owner),
		slog.String("path", r.URL.Path),
		slog.String("error", err.Error()))
}
