package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/internal/wgen"
)

func newTestServer(t *testing.T, cfg registry.Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(registry.New(cfg), Options{}))
	t.Cleanup(ts.Close)
	return ts
}

func do(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func registerFigSchemas(t *testing.T, base string) {
	t.Helper()
	if code, body := do(t, "PUT", base+"/schemas/v1", wgen.Figure2XSD(true, 100)); code != 200 {
		t.Fatalf("register v1: %d %s", code, body)
	}
	if code, body := do(t, "PUT", base+"/schemas/v2", wgen.Figure2XSD(false, 100)); code != 200 {
		t.Fatalf("register v2: %d %s", code, body)
	}
}

func poXML(withBill bool) string {
	return string(wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: 3, IncludeBillTo: withBill, Seed: 1})))
}

// TestEndToEnd is the acceptance flow: register two schemas over HTTP,
// cast a valid and an invalid document, read the pair report and metrics.
func TestEndToEnd(t *testing.T) {
	ts := newTestServer(t, registry.Config{})
	registerFigSchemas(t, ts.URL)

	// Valid document (billTo present satisfies the stricter target).
	code, body := do(t, "POST", ts.URL+"/cast/v1/v2", poXML(true))
	if code != 200 {
		t.Fatalf("cast valid: %d %s", code, body)
	}
	var verdict struct {
		Valid bool   `json:"valid"`
		Error string `json:"error"`
		Stats struct {
			ElementsVisited int64 `json:"elementsVisited"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(body), &verdict); err != nil {
		t.Fatalf("bad JSON: %v in %s", err, body)
	}
	if !verdict.Valid || verdict.Stats.ElementsVisited == 0 {
		t.Fatalf("want valid verdict with work stats, got %s", body)
	}

	// Invalid document (missing billTo).
	code, body = do(t, "POST", ts.URL+"/cast/v1/v2", poXML(false))
	if code != 200 {
		t.Fatalf("cast invalid: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &verdict); err != nil {
		t.Fatal(err)
	}
	if verdict.Valid || !strings.Contains(verdict.Error, "POType2") {
		t.Fatalf("want content-model rejection against POType2, got %s", body)
	}

	// Pair report: purchaseOrder neither subsumed nor disjoint for
	// (v1, v2); the reflexive pair (v1, v1) is statically compatible.
	code, body = do(t, "GET", ts.URL+"/pairs/v1/v2", "")
	if code != 200 {
		t.Fatalf("pairs: %d %s", code, body)
	}
	var pr struct {
		Report struct {
			Roots []struct {
				Label    string `json:"label"`
				Subsumed bool   `json:"subsumed"`
				Disjoint bool   `json:"disjoint"`
			} `json:"roots"`
			AlwaysValid     bool `json:"alwaysValid"`
			SubsumedPairs   int  `json:"subsumedPairs"`
			ContentAutomata int  `json:"contentAutomata"`
			IDAStates       int  `json:"idaStates"`
		} `json:"report"`
		CompileNS int64 `json:"compileNS"`
	}
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Report.AlwaysValid || pr.Report.SubsumedPairs == 0 || pr.Report.IDAStates == 0 || pr.CompileNS == 0 {
		t.Fatalf("pair report implausible: %s", body)
	}
	found := false
	for _, r := range pr.Report.Roots {
		if r.Label == "purchaseOrder" {
			found = true
			if r.Subsumed || r.Disjoint {
				t.Fatalf("purchaseOrder verdict wrong: %+v", r)
			}
		}
	}
	if !found {
		t.Fatalf("no purchaseOrder root in report: %s", body)
	}
	code, body = do(t, "GET", ts.URL+"/pairs/v1/v1", "")
	if code != 200 || !strings.Contains(body, `"alwaysValid":true`) {
		t.Fatalf("reflexive pair should be statically compatible: %d %s", code, body)
	}

	// Metrics reflect the traffic.
	code, body = do(t, "GET", ts.URL+"/metrics.json", "")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	var m struct {
		Requests struct {
			Register, Cast, Pairs int64
		} `json:"requests"`
		Verdicts struct{ Valid, Invalid int64 } `json:"verdicts"`
		Stream   struct {
			ElementsVisited int64 `json:"elementsVisited"`
		} `json:"stream"`
		Cache struct {
			Pairs    int   `json:"pairs"`
			Compiles int64 `json:"compiles"`
			Hits     int64 `json:"hits"`
		} `json:"cache"`
	}
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	if m.Requests.Register != 2 || m.Requests.Cast != 2 || m.Requests.Pairs != 2 {
		t.Fatalf("request counters wrong: %s", body)
	}
	if m.Verdicts.Valid != 1 || m.Verdicts.Invalid != 1 {
		t.Fatalf("verdict counters wrong: %s", body)
	}
	if m.Stream.ElementsVisited == 0 || m.Cache.Pairs != 2 || m.Cache.Compiles != 2 || m.Cache.Hits == 0 {
		t.Fatalf("stream/cache counters wrong: %s", body)
	}

	// Healthz.
	if code, body := do(t, "GET", ts.URL+"/healthz", ""); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts := newTestServer(t, registry.Config{})
	registerFigSchemas(t, ts.URL)
	docs := []string{poXML(true), poXML(false), poXML(true)}
	payload, _ := json.Marshal(docs)
	code, body := do(t, "POST", ts.URL+"/cast/v1/v2/batch?workers=2", string(payload))
	if code != 200 {
		t.Fatalf("batch: %d %s", code, body)
	}
	var resp struct {
		Count, Valid, Invalid int
		Verdicts              []*string `json:"verdicts"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 3 || resp.Valid != 2 || resp.Invalid != 1 {
		t.Fatalf("batch verdicts wrong: %s", body)
	}
	if resp.Verdicts[0] != nil || resp.Verdicts[1] == nil || resp.Verdicts[2] != nil {
		t.Fatalf("batch slots wrong: %s", body)
	}
	// Empty batch.
	code, body = do(t, "POST", ts.URL+"/cast/v1/v2/batch", "[]")
	if code != 200 || !strings.Contains(body, `"count":0`) {
		t.Fatalf("empty batch: %d %s", code, body)
	}
	// Malformed batch body.
	if code, _ := do(t, "POST", ts.URL+"/cast/v1/v2/batch", "not json"); code != 400 {
		t.Fatalf("malformed batch should 400, got %d", code)
	}
	// Bad workers parameter.
	if code, _ := do(t, "POST", ts.URL+"/cast/v1/v2/batch?workers=x", "[]"); code != 400 {
		t.Fatalf("bad workers should 400, got %d", code)
	}
}

func TestErrorStatuses(t *testing.T) {
	ts := newTestServer(t, registry.Config{})
	registerFigSchemas(t, ts.URL)
	if code, _ := do(t, "POST", ts.URL+"/cast/v1/nope", poXML(true)); code != 404 {
		t.Fatalf("unknown target should 404, got %d", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/schemas/nope", ""); code != 404 {
		t.Fatalf("unknown schema should 404, got %d", code)
	}
	if code, body := do(t, "PUT", ts.URL+"/schemas/bad", "not a schema"); code != 422 {
		t.Fatalf("broken schema should 422, got %d %s", code, body)
	}
	if code, _ := do(t, "PUT", ts.URL+"/schemas/bad?format=wat", "<x/>"); code != 400 {
		t.Fatalf("bad format should 400, got %d", code)
	}
	// Schema metadata endpoint.
	code, body := do(t, "GET", ts.URL+"/schemas/v1", "")
	if code != 200 || !strings.Contains(body, `"hash"`) {
		t.Fatalf("schema metadata: %d %s", code, body)
	}
}

// TestConcurrentColdPair storms a cold pair over HTTP and requires the
// singleflight to compile exactly once while every request gets a correct
// verdict; /metrics must show the hit counters. Run under -race in CI.
func TestConcurrentColdPair(t *testing.T) {
	ts := newTestServer(t, registry.Config{})
	registerFigSchemas(t, ts.URL)
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			withBill := i%2 == 0
			resp, err := http.Post(ts.URL+"/cast/v1/v2", "application/xml", strings.NewReader(poXML(withBill)))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			var v struct {
				Valid bool `json:"valid"`
			}
			if err := json.Unmarshal(b, &v); err != nil {
				errs[i] = err
				return
			}
			if v.Valid != withBill {
				errs[i] = fmt.Errorf("verdict %v for withBill=%v", v.Valid, withBill)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	_, body := do(t, "GET", ts.URL+"/metrics.json", "")
	var m struct {
		Cache struct {
			Compiles int64 `json:"compiles"`
			Hits     int64 `json:"hits"`
			Misses   int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	if m.Cache.Compiles != 1 {
		t.Fatalf("cold pair compiled %d times under storm (want 1): %s", m.Cache.Compiles, body)
	}
	if m.Cache.Hits != n-1 || m.Cache.Misses != 1 {
		t.Fatalf("want %d hits / 1 miss, got %s", n-1, body)
	}
}

// TestGracefulDrain starts a real http.Server, opens a cast request whose
// body arrives slowly, shuts the server down mid-request, and requires the
// in-flight validation to complete with a correct verdict.
func TestGracefulDrain(t *testing.T) {
	reg := registry.New(registry.Config{})
	if _, err := reg.Register("v1", wgen.Figure2XSD(true, 100), registry.FormatAuto, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("v2", wgen.Figure2XSD(false, 100), registry.FormatAuto, ""); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, Options{})
	// The server reports each connection that starts a request; the test
	// waits for the cast's before it begins the drain.
	active := make(chan string, 16)
	hs := &http.Server{Handler: srv, ConnState: func(c net.Conn, st http.ConnState) {
		if st == http.StateActive {
			select {
			case active <- c.RemoteAddr().String():
			default:
			}
		}
	}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	// Healthy before the drain starts.
	if code, body := do(t, "GET", base+"/healthz", ""); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz before drain: %d %s", code, body)
	}

	// The cast runs on a connection of its own. On a keep-alive connection
	// left by /healthz, the server may still be finishing that request
	// when Shutdown begins, and then closes the connection instead of
	// reading the next one.
	castConn := make(chan string, 1)
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err == nil {
			castConn <- c.LocalAddr().String()
		}
		return c, err
	}}
	defer tr.CloseIdleConnections()
	pr, pw := io.Pipe()
	type result struct {
		body string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := (&http.Client{Transport: tr}).Post(base+"/cast/v1/v2", "application/xml", pr)
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- result{body: string(b)}
	}()

	doc := poXML(true)
	half := len(doc) / 2
	if _, err := io.WriteString(pw, doc[:half]); err != nil {
		t.Fatal(err)
	}
	// The request is in flight once the server has read its first bytes.
	addr, timeout := <-castConn, time.After(5*time.Second)
	for a := ""; a != addr; {
		select {
		case a = <-active:
		case <-timeout:
			t.Fatal("the server never reported the cast request active")
		}
	}
	// Start draining (as castd does on SIGTERM, before calling Shutdown):
	// /healthz must flip to 503 so load balancers stop routing here, while
	// the mid-body cast request keeps running.
	srv.SetDraining(true)
	if code, body := do(t, "GET", base+"/healthz", ""); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("healthz while draining should 503, got %d %s", code, body)
	}
	// Shutdown with the request mid-body: Shutdown must wait for it.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- hs.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond) // let Shutdown begin draining
	if _, err := io.WriteString(pw, doc[half:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if !strings.Contains(res.body, `"valid":true`) {
		t.Fatalf("in-flight verdict wrong: %s", res.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestMetricsPrometheus scrapes /metrics after some traffic and asserts the
// acceptance families are present in well-formed Prometheus text.
func TestMetricsPrometheus(t *testing.T) {
	ts := newTestServer(t, registry.Config{})
	registerFigSchemas(t, ts.URL)
	do(t, "POST", ts.URL+"/cast/v1/v2", poXML(true))
	do(t, "POST", ts.URL+"/cast/v1/v2", poXML(false))

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	b, _ := io.ReadAll(resp.Body)
	body := string(b)

	for _, want := range []string{
		"# TYPE cast_subtrees_skipped_total counter",
		"# TYPE cast_symbols_scanned_total counter",
		"# TYPE registry_compile_seconds histogram",
		"# TYPE http_request_duration_seconds histogram",
		"registry_compile_seconds_count 1",
		`cast_verdicts_total{verdict="valid"} 1`,
		`cast_verdicts_total{verdict="invalid"} 1`,
		"registry_compiles_total 1",
		"http_in_flight_requests 1", // this scrape itself is in flight
		// The artifact-store and peer families exist (at zero) even on a
		// single node with no -artifact-dir, so dashboards never gap.
		"artifact_store_hits_total 0",
		"artifact_store_misses_total 0",
		"artifact_store_writes_total 0",
		"artifact_store_corrupt_total 0",
		"castd_peer_forwards_total 0",
		"castd_peer_fetch_total 0",
		"castd_peer_errors_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, body)
		}
	}
	// The valid cast skims shipTo/billTo/items; the invalid one skims
	// shipTo before the root content model rejects on the missing billTo.
	if !strings.Contains(body, "cast_subtrees_skipped_total 4") {
		t.Fatalf("want 4 skipped subtrees across the two casts:\n%s", body)
	}
	// Sample lines must be `name{labels} value` throughout.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSampleRe.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
	}
}

var promSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9]+(\.[0-9eE+-]+)?|\+Inf|NaN)$`)

// TestExplainEndpoint asks for a decision trace alongside the verdict and
// checks it agrees with the stats.
func TestExplainEndpoint(t *testing.T) {
	ts := newTestServer(t, registry.Config{})
	registerFigSchemas(t, ts.URL)
	code, body := do(t, "POST", ts.URL+"/cast/v1/v2?explain=1", poXML(true))
	if code != 200 {
		t.Fatalf("explain cast: %d %s", code, body)
	}
	var resp struct {
		Valid bool `json:"valid"`
		Stats struct {
			SubsumedSkips int64 `json:"subsumedSkips"`
		} `json:"stats"`
		Trace []struct {
			Action string `json:"action"`
			Path   string `json:"path"`
			Dewey  string `json:"dewey"`
		} `json:"trace"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad JSON: %v in %s", err, body)
	}
	if !resp.Valid || len(resp.Trace) == 0 {
		t.Fatalf("want valid verdict with trace: %s", body)
	}
	skips := 0
	for _, ev := range resp.Trace {
		if ev.Action == "skip" {
			skips++
		}
	}
	if int64(skips) != resp.Stats.SubsumedSkips || skips != 3 {
		t.Fatalf("trace skips (%d) must equal stats subsumedSkips (%d): %s", skips, resp.Stats.SubsumedSkips, body)
	}
	if resp.Trace[0].Path != "/purchaseOrder" || resp.Trace[0].Dewey != "ε" {
		t.Fatalf("root event wrong: %s", body)
	}
	// Without explain=1 no trace is attached.
	_, body = do(t, "POST", ts.URL+"/cast/v1/v2", poXML(true))
	if strings.Contains(body, `"trace"`) {
		t.Fatalf("trace must be opt-in: %s", body)
	}
}

// TestAccessLog checks the middleware emits one structured record per
// request with a request id, route name and status.
func TestAccessLog(t *testing.T) {
	var buf strings.Builder
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil))
	reg := registry.New(registry.Config{})
	ts := httptest.NewServer(New(reg, Options{Logger: logger, AccessLog: true}))
	defer ts.Close()
	do(t, "GET", ts.URL+"/healthz", "")
	do(t, "GET", ts.URL+"/schemas/nope", "")
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 access-log records, got %q", out)
	}
	if !strings.Contains(lines[0], "req=1") || !strings.Contains(lines[0], "route=healthz") || !strings.Contains(lines[0], "status=200") {
		t.Fatalf("first record: %q", lines[0])
	}
	if !strings.Contains(lines[1], "req=2") || !strings.Contains(lines[1], "status=404") {
		t.Fatalf("second record: %q", lines[1])
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
