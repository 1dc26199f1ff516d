package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/artifact"
	"repro/internal/registry"
	"repro/internal/wgen"
)

// lateHandler lets an httptest server start (and expose its URL) before the
// real handler — which needs that URL as its cluster identity — exists.
type lateHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	h := l.h
	l.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// twoNodes starts a two-member cluster and returns both base URLs with
// their registries.
func twoNodes(t *testing.T) (urlA, urlB string, regA, regB *registry.Registry) {
	t.Helper()
	lhA, lhB := &lateHandler{}, &lateHandler{}
	tsA, tsB := httptest.NewServer(lhA), httptest.NewServer(lhB)
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	peers := []string{tsA.URL, tsB.URL}
	regA, regB = registry.New(registry.Config{}), registry.New(registry.Config{})
	srvA, srvB := New(regA, Options{SelfURL: tsA.URL, Peers: peers}),
		New(regB, Options{SelfURL: tsB.URL, Peers: peers})
	t.Cleanup(srvA.Close) // stop the peer probers, not just the listeners
	t.Cleanup(srvB.Close)
	lhA.set(srvA)
	lhB.set(srvB)
	return tsA.URL, tsB.URL, regA, regB
}

func TestRendezvousOwner(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	a := newCluster(peers[0], peers)
	b := newCluster(peers[1], []string{peers[2], peers[1], peers[0]}) // shuffled
	owned := map[string]int{}
	for i := 0; i < 100; i++ {
		key := artifact.Key(fmt.Sprintf("s%d", i), "d")
		if a.owner(key) != b.owner(key) {
			t.Fatalf("peers disagree on owner of %s", key)
		}
		owned[a.owner(key)]++
	}
	for _, p := range peers {
		if owned[p] == 0 {
			t.Fatalf("peer %s owns no keys out of 100: %v", p, owned)
		}
	}
	if c := newCluster("", peers); c != nil {
		t.Fatal("cluster without a self URL should be disabled")
	}
	if c := newCluster("http://a:1", []string{"http://a:1/"}); c != nil {
		t.Fatal("cluster of one should be disabled")
	}
}

// TestClusterTwoNodes is the clustering contract end to end: however many
// nodes serve a pair, the cluster compiles it exactly once. The first cast
// through the non-owner is proxied (the owner compiles); the second fetches
// the owner's artifact and installs it, after which the non-owner serves
// locally.
func TestClusterTwoNodes(t *testing.T) {
	urlA, urlB, regA, regB := twoNodes(t)
	registerFigSchemas(t, urlA)
	registerFigSchemas(t, urlB)

	// Work out which node owns the v1→v2 pair key.
	sv1, _ := regA.Schema("v1")
	sv2, _ := regA.Schema("v2")
	key := artifact.Key(sv1.Hash, sv2.Hash)
	c := newCluster(urlA, []string{urlA, urlB})
	ownerURL := c.owner(key)
	nonOwnerURL := urlA
	ownerReg, nonOwnerReg := regB, regA
	if ownerURL == urlA {
		nonOwnerURL = urlB
		ownerReg, nonOwnerReg = regA, regB
	}

	castVia := func(url string, withBill bool) bool {
		t.Helper()
		code, body := do(t, "POST", url+"/cast/v1/v2", poXML(withBill))
		if code != 200 {
			t.Fatalf("cast via %s: %d %s", url, code, body)
		}
		var v struct {
			Valid bool `json:"valid"`
		}
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("bad verdict JSON: %v in %s", err, body)
		}
		return v.Valid
	}

	// First cast lands on the non-owner: proxied to the owner, which
	// compiles and produces the verdict.
	if !castVia(nonOwnerURL, true) {
		t.Fatal("valid doc rejected via non-owner")
	}
	if got := ownerReg.Stats().Compiles; got != 1 {
		t.Fatalf("owner compiles = %d, want 1", got)
	}
	if got := nonOwnerReg.Stats().Compiles; got != 0 {
		t.Fatalf("non-owner compiles = %d, want 0 after proxy", got)
	}
	_, metricsBody := do(t, "GET", nonOwnerURL+"/metrics", "")
	if !strings.Contains(metricsBody, "castd_peer_forwards_total 1") {
		t.Fatalf("non-owner metrics missing forward count:\n%s", metricsBody)
	}

	// Second cast via the non-owner: the owner now has the artifact, so the
	// non-owner fetches and installs it, then serves locally — including an
	// invalid verdict, proving the installed pair really validates.
	if !castVia(nonOwnerURL, true) {
		t.Fatal("valid doc rejected on fetch round")
	}
	if castVia(nonOwnerURL, false) {
		t.Fatal("invalid doc accepted via installed artifact")
	}
	if got := nonOwnerReg.Stats().Compiles; got != 0 {
		t.Fatalf("non-owner compiles = %d, want 0 after fetch+install", got)
	}
	if got := ownerReg.Stats().Compiles; got != 1 {
		t.Fatalf("owner compiles = %d, want it to stay 1", got)
	}
	_, metricsBody = do(t, "GET", nonOwnerURL+"/metrics", "")
	for _, want := range []string{
		"castd_peer_fetch_total 1",
		"castd_peer_forwards_total 1",
		"castd_peer_errors_total 0",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Fatalf("non-owner metrics missing %q:\n%s", want, metricsBody)
		}
	}

	// Casting on the owner never touches the peer.
	if !castVia(ownerURL, true) {
		t.Fatal("valid doc rejected via owner")
	}
	_, ownerMetrics := do(t, "GET", ownerURL+"/metrics", "")
	for _, want := range []string{
		"castd_peer_forwards_total 0",
		"castd_peer_fetch_total 0",
	} {
		if !strings.Contains(ownerMetrics, want) {
			t.Fatalf("owner metrics missing %q:\n%s", want, ownerMetrics)
		}
	}
}

// TestClusterForwardedLoopGuard: a request already forwarded once is served
// locally even by a node that does not consider itself the owner, so peer
// lists that disagree cannot proxy in a loop.
func TestClusterForwardedLoopGuard(t *testing.T) {
	urlA, urlB, regA, regB := twoNodes(t)
	registerFigSchemas(t, urlA)
	registerFigSchemas(t, urlB)

	sv1, _ := regA.Schema("v1")
	sv2, _ := regA.Schema("v2")
	nonOwnerURL, nonOwnerReg := urlA, regA
	if c := newCluster(urlA, []string{urlA, urlB}); c.owner(artifact.Key(sv1.Hash, sv2.Hash)) == urlA {
		nonOwnerURL, nonOwnerReg = urlB, regB
	}

	req, err := http.NewRequest("POST", nonOwnerURL+"/cast/v1/v2", strings.NewReader(poXML(true)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(forwardedHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("forwarded cast: %d", resp.StatusCode)
	}
	if got := nonOwnerReg.Stats().Compiles; got != 1 {
		t.Fatalf("forwarded request must compile locally, compiles = %d", got)
	}
}

// TestClusterOwnerUnreachable: when the owning peer is down, the non-owner
// falls back to a local compile — one extra compile, not an error.
func TestClusterOwnerUnreachable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	lh := &lateHandler{}
	ts := httptest.NewServer(lh)
	t.Cleanup(ts.Close)
	reg := registry.New(registry.Config{})
	srv := New(reg, Options{SelfURL: ts.URL, Peers: []string{ts.URL, deadURL}})
	t.Cleanup(srv.Close)
	lh.set(srv)
	registerFigSchemas(t, ts.URL)

	// Find a pair the dead peer owns; sweep distinct source schemas until
	// the rendezvous hash lands on it.
	c := newCluster(ts.URL, []string{ts.URL, deadURL})
	pairSrc := ""
	for i := 0; i < 32 && pairSrc == ""; i++ {
		id := fmt.Sprintf("s%d", i)
		if code, body := do(t, "PUT", ts.URL+"/schemas/"+id, wgen.Figure2XSD(true, 100+i)); code != 200 {
			t.Fatalf("register %s: %d %s", id, code, body)
		}
		se, _ := reg.Schema(id)
		sv2, _ := reg.Schema("v2")
		if c.owner(artifact.Key(se.Hash, sv2.Hash)) == normalizePeer(deadURL) {
			pairSrc = id
		}
	}
	if pairSrc == "" {
		t.Fatal("no pair owned by the dead peer in 32 tries (astronomically unlikely)")
	}

	code, body := do(t, "POST", ts.URL+"/cast/"+pairSrc+"/v2", poXML(true))
	if code != 200 {
		t.Fatalf("cast with dead owner: %d %s", code, body)
	}
	if got := reg.Stats().Compiles; got != 1 {
		t.Fatalf("local fallback compiles = %d, want 1", got)
	}
	_, metricsBody := do(t, "GET", ts.URL+"/metrics", "")
	if !strings.Contains(metricsBody, "castd_peer_errors_total 1") {
		t.Fatalf("metrics missing peer error count:\n%s", metricsBody)
	}
}

// TestArtifactRoute: the blob served over /artifacts/{key} round-trips
// through the codec, and unknown or hostile keys 404.
func TestArtifactRoute(t *testing.T) {
	ts := newTestServer(t, registry.Config{})
	registerFigSchemas(t, ts.URL)
	if code, body := do(t, "POST", ts.URL+"/cast/v1/v2", poXML(true)); code != 200 {
		t.Fatalf("cast: %d %s", code, body)
	}

	// Recompute the pair key from the registered hashes.
	var meta struct {
		Hash string `json:"hash"`
	}
	_, b1 := do(t, "GET", ts.URL+"/schemas/v1", "")
	if err := json.Unmarshal([]byte(b1), &meta); err != nil {
		t.Fatal(err)
	}
	h1 := meta.Hash
	_, b2 := do(t, "GET", ts.URL+"/schemas/v2", "")
	if err := json.Unmarshal([]byte(b2), &meta); err != nil {
		t.Fatal(err)
	}
	key := artifact.Key(h1, meta.Hash)

	resp, err := http.Get(ts.URL + "/artifacts/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("artifact fetch: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}
	blob := make([]byte, 0, 1<<16)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		blob = append(blob, buf[:n]...)
		if err != nil {
			break
		}
	}
	info, err := artifact.Inspect(blob)
	if err != nil {
		t.Fatalf("served blob does not inspect: %v", err)
	}
	if info.Key != key {
		t.Fatalf("served blob key %s, want %s", info.Key, key)
	}
	if code, _ := do(t, "GET", ts.URL+"/artifacts/"+artifact.Key("no", "pe"), ""); code != 404 {
		t.Fatalf("unknown key: %d, want 404", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/artifacts/not-a-key", ""); code != 404 {
		t.Fatalf("hostile key: %d, want 404", code)
	}
}

// TestFetchNotFoundKeepsConnection: a peer's 404 answer leaves its
// connection reusable, so repeated fetch→404 sequences (the cold path of
// every non-owner lookup) run over one TCP connection instead of dialing
// one per fetch.
func TestFetchNotFoundKeepsConnection(t *testing.T) {
	var dials atomic.Int32
	ts := httptest.NewUnstartedServer(New(registry.New(registry.Config{}), Options{}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c := newCluster("http://self.invalid", []string{ts.URL})
	const fetches = 20
	for i := 0; i < fetches; i++ {
		if _, err := c.fetchArtifact(context.Background(), ts.URL, artifact.Key("no", "pe")); !errors.Is(err, errPeerNotFound) {
			t.Fatalf("fetch %d: %v, want errPeerNotFound", i, err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d fetches answered 404 opened %d connections, want 1", fetches, n)
	}
}
