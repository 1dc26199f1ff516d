package revalidate_test

// Integration tests for the command-line tools: each binary is compiled
// once into a temp dir and driven through its main paths.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/wgen"
)

var (
	toolsOnce sync.Once
	toolsDir  string
	toolsErr  error
)

// buildTools compiles the three binaries once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	toolsOnce.Do(func() {
		dir, err := os.MkdirTemp("", "revalidate-tools-")
		if err != nil {
			toolsErr = err
			return
		}
		toolsDir = dir
		for _, tool := range []string{"xmlcast", "schemadump", "castbench", "castd"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
			cmd.Dir = "."
			if out, err := cmd.CombinedOutput(); err != nil {
				toolsErr = err
				t.Logf("build %s: %s", tool, out)
				return
			}
		}
	})
	if toolsErr != nil {
		t.Fatalf("building tools: %v", toolsErr)
	}
	return toolsDir
}

// fixtures writes the paper schema pair and two documents into a temp dir.
func fixtures(t *testing.T) (dir, srcXSD, dstXSD, validDoc, invalidDoc string) {
	t.Helper()
	dir = t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	srcXSD = write("v1.xsd", wgen.Figure2XSD(true, 100))
	dstXSD = write("v2.xsd", wgen.Figure2XSD(false, 100))
	withBill := wgen.PODocument(wgen.PODocOptions{Items: 3, IncludeBillTo: true, Seed: 1})
	without := wgen.PODocument(wgen.PODocOptions{Items: 3, IncludeBillTo: false, Seed: 1})
	validDoc = write("with.xml", string(wgen.POXMLBytes(withBill)))
	invalidDoc = write("without.xml", string(wgen.POXMLBytes(without)))
	return
}

// keyedXSD declares an xs:key: no validator checks it, so every entry
// point refuses the schema.
const keyedXSD = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="catalog">
    <xs:complexType><xs:sequence>
      <xs:element name="sku" type="xs:string" maxOccurs="unbounded"/>
    </xs:sequence></xs:complexType>
    <xs:key name="skuKey"><xs:selector xpath="sku"/><xs:field xpath="."/></xs:key>
  </xs:element>
</xs:schema>`

func run(t *testing.T, bin string, args ...string) (stdout, stderr string, exitCode int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %s: %v", bin, err)
	}
	return out.String(), errb.String(), code
}

func TestXmlcastCLI(t *testing.T) {
	bin := filepath.Join(buildTools(t), "xmlcast")
	_, src, dst, valid, invalid := fixtures(t)

	// Full validation (no source).
	out, _, code := run(t, bin, "-target", dst, valid)
	if code != 0 || !strings.Contains(out, "valid") {
		t.Fatalf("full validation: code=%d out=%q", code, out)
	}
	// Schema cast with stats.
	out, errOut, code := run(t, bin, "-source", src, "-target", dst, "-stats", valid)
	if code != 0 || !strings.Contains(out, "valid") {
		t.Fatalf("cast: code=%d out=%q err=%q", code, out, errOut)
	}
	if !strings.Contains(errOut, "skips=") {
		t.Fatalf("expected stats on stderr: %q", errOut)
	}
	// Invalid document: exit 1 with a reason.
	_, errOut, code = run(t, bin, "-source", src, "-target", dst, invalid)
	if code != 1 || !strings.Contains(errOut, "INVALID") {
		t.Fatalf("invalid doc: code=%d err=%q", code, errOut)
	}
	// Indexed mode.
	out, _, code = run(t, bin, "-source", src, "-target", dst, "-indexed", valid)
	if code != 0 || !strings.Contains(out, "valid") {
		t.Fatalf("indexed: code=%d out=%q", code, out)
	}
	// Usage error.
	_, _, code = run(t, bin)
	if code != 2 {
		t.Fatalf("missing args should exit 2, got %d", code)
	}
	// Unreadable schema.
	_, _, code = run(t, bin, "-target", "/nonexistent.xsd", valid)
	if code != 2 {
		t.Fatalf("missing schema file should exit 2, got %d", code)
	}
}

// TestXmlcastExitCodeContract pins the scripting contract the daemon smoke
// tests rely on: 0 valid / 1 invalid / 2 usage-or-IO, verdicts on stdout,
// diagnostics on stderr.
func TestXmlcastExitCodeContract(t *testing.T) {
	bin := filepath.Join(buildTools(t), "xmlcast")
	dir, src, dst, valid, invalid := fixtures(t)

	// Valid: exit 0, verdict on stdout, silent stderr.
	out, errOut, code := run(t, bin, "-source", src, "-target", dst, valid)
	if code != 0 || strings.TrimSpace(out) != "valid" || errOut != "" {
		t.Fatalf("valid: code=%d stdout=%q stderr=%q", code, out, errOut)
	}
	// Invalid: exit 1, reason on stderr only.
	out, errOut, code = run(t, bin, "-source", src, "-target", dst, invalid)
	if code != 1 || out != "" || !strings.Contains(errOut, "INVALID") {
		t.Fatalf("invalid: code=%d stdout=%q stderr=%q", code, out, errOut)
	}
	// Unparseable document: exit 2 with a diagnostic on stderr.
	garbled := filepath.Join(dir, "garbled.xml")
	if err := os.WriteFile(garbled, []byte("<po><unclosed>"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut, code = run(t, bin, "-source", src, "-target", dst, garbled)
	if code != 2 || out != "" || !strings.Contains(errOut, "xmlcast:") {
		t.Fatalf("garbled: code=%d stdout=%q stderr=%q", code, out, errOut)
	}
	// Streaming invalid keeps the same contract.
	out, errOut, code = run(t, bin, "-source", src, "-target", dst, "-stream", invalid)
	if code != 1 || out != "" || !strings.Contains(errOut, "INVALID") {
		t.Fatalf("stream invalid: code=%d stdout=%q stderr=%q", code, out, errOut)
	}
	// A schema with an identity constraint is refused, never answered.
	keyed := filepath.Join(dir, "keyed.xsd")
	if err := os.WriteFile(keyed, []byte(keyedXSD), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut, code = run(t, bin, "-target", keyed, valid)
	if code != 2 || out != "" || !strings.Contains(errOut, "skuKey") {
		t.Fatalf("keyed schema: code=%d stdout=%q stderr=%q", code, out, errOut)
	}
}

// startCastd starts the castd binary on an ephemeral port with the given
// extra flags and returns it with its base URL once it logs that it is
// listening. The process is killed when the test ends.
func startCastd(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	bin := filepath.Join(buildTools(t), "castd")
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	// The daemon logs its resolved address (a structured slog record with
	// an addr attribute) once the listener is up.
	var base string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, "castd: listening") {
			continue
		}
		for _, field := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(field, "addr="); ok {
				base = "http://" + v
				break
			}
		}
		if base != "" {
			break
		}
	}
	if base == "" {
		t.Fatalf("castd never reported its address: %v", sc.Err())
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained
	return cmd, base
}

// httpDo sends one request and returns the status code and body.
func httpDo(t *testing.T, method, url, body string) (int, string) {
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
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// registerPaperPair registers Figure 2's optional-billTo schema as v1 and
// the required-billTo one as v2.
func registerPaperPair(t *testing.T, base string) {
	t.Helper()
	for id, optional := range map[string]bool{"v1": true, "v2": false} {
		if code, body := httpDo(t, "PUT", base+"/schemas/"+id, wgen.Figure2XSD(optional, 100)); code != 200 {
			t.Fatalf("register %s: %d %s", id, code, body)
		}
	}
}

// TestCastdSmoke drives the real castd binary end to end: start it on an
// ephemeral port, register the paper's schema pair over HTTP, cast a
// valid and an invalid purchase order, then SIGTERM for a graceful exit.
func TestCastdSmoke(t *testing.T) {
	cmd, base := startCastd(t, "-drain", "5s")
	if code, body := httpDo(t, "GET", base+"/healthz", ""); code != 200 {
		t.Fatalf("healthz: %d %s", code, body)
	}
	registerPaperPair(t, base)
	withBill := string(wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: 3, IncludeBillTo: true, Seed: 1})))
	without := string(wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: 3, IncludeBillTo: false, Seed: 1})))
	if code, body := httpDo(t, "POST", base+"/cast/v1/v2", withBill); code != 200 || !strings.Contains(body, `"valid":true`) {
		t.Fatalf("cast valid doc: %d %s", code, body)
	}
	if code, body := httpDo(t, "POST", base+"/cast/v1/v2", without); code != 200 || !strings.Contains(body, `"valid":false`) {
		t.Fatalf("cast invalid doc: %d %s", code, body)
	}
	if code, body := httpDo(t, "GET", base+"/pairs/v1/v2", ""); code != 200 || !strings.Contains(body, `"alwaysValid":false`) {
		t.Fatalf("pairs: %d %s", code, body)
	}
	code, metrics := httpDo(t, "GET", base+"/metrics", "")
	if code != 200 {
		t.Fatalf("metrics: %d %s", code, metrics)
	}
	checkSmokeMetrics(t, metrics)
	if code, body := httpDo(t, "GET", base+"/metrics.json", ""); code != 200 || !strings.Contains(body, `"compiles":1`) {
		t.Fatalf("metrics.json: %d %s", code, body)
	}

	// Graceful shutdown: SIGTERM drains and exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("castd exit after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("castd did not exit after SIGTERM")
	}
}

// TestCastdGovernanceFlags checks that castd's governance flags reach the
// server: -max-in-flight sheds with 429, -cast-timeout answers a stalled
// body with 408, and -fault-inject compile-panic yields a contained 500.
// The behaviour itself is tested at the Options level in internal/server
// (TestShed429WhenSaturated, TestCastTimeout408, TestChaos).
func TestCastdGovernanceFlags(t *testing.T) {
	withBill := string(wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: 3, IncludeBillTo: true, Seed: 1})))
	isJSONError := func(body string) bool {
		var e struct {
			Error string `json:"error"`
		}
		return json.Unmarshal([]byte(body), &e) == nil && e.Error != ""
	}

	t.Run("shed-and-timeout", func(t *testing.T) {
		_, base := startCastd(t, "-max-in-flight", "1", "-cast-timeout", "1s")
		registerPaperPair(t, base)
		// Warm the pair so the probes measure admission, not compile.
		if code, body := httpDo(t, "POST", base+"/cast/v1/v2", withBill); code != 200 {
			t.Fatalf("warm cast: %d %s", code, body)
		}

		// Hold the one slot with a body that stalls after its first tag.
		pr, pw := io.Pipe()
		defer pw.Close()
		go pw.Write([]byte(`<purchaseOrder orderDate="2004-03-14">`))
		type result struct {
			code int
			body string
			err  error
		}
		held := make(chan result, 1)
		go func() {
			resp, err := http.Post(base+"/cast/v1/v2", "application/xml", pr)
			if err != nil {
				held <- result{err: err}
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			held <- result{code: resp.StatusCode, body: string(b)}
		}()
		// The holder is in flight once the gauge counts it beside the
		// scrape that reads it.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			_, metrics := httpDo(t, "GET", base+"/metrics", "")
			if strings.Contains(metrics, "\nhttp_in_flight_requests 2\n") {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the stalled cast never went in flight")
			}
		}

		resp, err := http.Post(base+"/cast/v1/v2", "application/xml", strings.NewReader(withBill))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || !isJSONError(string(b)) {
			t.Fatalf("want a structured 429 under saturation, got %d %s", resp.StatusCode, b)
		}
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Fatalf("Retry-After = %q, want 1", got)
		}

		// -cast-timeout answers the stalled body with a structured 408.
		var r result
		select {
		case r = <-held:
		case <-time.After(10 * time.Second):
			t.Fatal("the stalled cast was never answered")
		}
		if r.err != nil {
			t.Fatalf("stalled cast failed at the transport: %v", r.err)
		}
		if r.code != http.StatusRequestTimeout || !isJSONError(r.body) {
			t.Fatalf("want a structured 408 for the stalled body, got %d %s", r.code, r.body)
		}

		_, metrics := httpDo(t, "GET", base+"/metrics", "")
		for _, want := range []string{"\ncastd_shed_total 1\n", "\ncastd_panics_total 0\n", "\ncastd_queue_wait_seconds_bucket{"} {
			if !strings.Contains(metrics, want) {
				t.Errorf("metrics missing %q", strings.TrimSpace(want))
			}
		}
	})

	t.Run("compile-panic", func(t *testing.T) {
		_, base := startCastd(t, "-fault-inject", "compile-panic")
		registerPaperPair(t, base)
		if code, body := httpDo(t, "POST", base+"/cast/v1/v2", withBill); code != http.StatusInternalServerError || !strings.Contains(body, "panicked") {
			t.Fatalf("want a 500 naming the panic, got %d %s", code, body)
		}
		if code, body := httpDo(t, "GET", base+"/healthz", ""); code != 200 {
			t.Fatalf("daemon did not survive the panic: healthz %d %s", code, body)
		}
		if _, metrics := httpDo(t, "GET", base+"/metrics", ""); !strings.Contains(metrics, "\nregistry_compile_panics_total 1\n") {
			t.Fatal("registry_compile_panics_total is not 1")
		}
	})
}

// smokeFamilies are the families a standalone castd exposes after one
// compiled pair and two casts: the work-saved families the paper's economy
// argument rests on, the serving, tracing, artifact, peer, resilience,
// OTLP, runtime, profiling and hot-pair families. Each must have a sample.
var smokeFamilies = []string{
	"cast_subtrees_skipped_total", "cast_symbols_scanned_total", "cast_elements_skimmed_total",
	"cast_verdicts_total", "registry_compile_seconds_bucket", "registry_compiles_total",
	"http_request_duration_seconds_bucket", "http_requests_total", "http_in_flight_requests",
	"castd_uptime_seconds", "castd_traces_started_total", "castd_traces_retained_total",
	"artifact_store_hits_total", "artifact_store_misses_total", "artifact_store_writes_total",
	"artifact_store_corrupt_total", "castd_peer_forwards_total", "castd_peer_fetch_total",
	"castd_peer_errors_total", "castd_peer_retries_total", "castd_peer_retry_budget_exhausted_total",
	"castd_peer_hedges_total", "castd_peer_hedge_wins_total", "castd_artifact_store_degraded",
	"castd_otlp_exported_total", "castd_otlp_dropped_total", "castd_otlp_retries_total",
	"castd_otlp_queue_depth", "go_goroutines", "go_threads", "go_gc_pause_seconds_bucket",
	"go_sched_latencies_seconds_bucket", "go_memstats_heap_alloc_bytes", "go_memstats_heap_objects",
	"go_memstats_stack_inuse_bytes", "go_gc_cycles_total", "castd_runtime_samples_total",
	"castd_profiles_captured_total", "castd_profiles_dropped_total", "cast_pair_seconds_total",
	"cast_pair_casts_total", "cast_pair_work_saved_ratio", "cast_pair_tracked",
}

// sampleLine is a well-formed exposition sample: name{labels} value, with
// a numeric, +Inf or NaN value.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?([0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|NaN)$`)

// checkSmokeMetrics asserts what a standalone castd's /metrics must show
// after TestCastdSmoke's traffic: one compiled pair, one valid and one
// invalid cast.
func checkSmokeMetrics(t *testing.T, text string) {
	t.Helper()
	lines := strings.Split(text, "\n")
	has := func(pred func(string) bool) bool {
		for _, l := range lines {
			if pred(l) {
				return true
			}
		}
		return false
	}
	prefix := func(p string) bool { return has(func(l string) bool { return strings.HasPrefix(l, p) }) }
	line := func(want string) bool { return has(func(l string) bool { return l == want }) }
	for _, f := range smokeFamilies {
		if !prefix(f) {
			t.Errorf("missing family %s", f)
		}
	}
	// The runtime collector sampled at least once (at construction).
	if !has(regexp.MustCompile(`^castd_runtime_samples_total [1-9]`).MatchString) {
		t.Error("castd_runtime_samples_total never sampled")
	}
	// Hot-pair attribution is bounded: the overflow row always exists, and
	// the one compiled pair is tracked individually. One compile so far,
	// counted in the histogram too.
	for _, want := range []string{
		`cast_pair_casts_total{pair="other"} 0`, "cast_pair_tracked 1",
		"registry_compiles_total 1", "registry_compile_seconds_count 1",
	} {
		if !line(want) {
			t.Errorf("missing sample line %q", want)
		}
	}
	// A standalone daemon renders castd_peer_up with no series (the peer
	// list is empty); the labeled resilience families likewise.
	for _, f := range []string{"castd_peer_up", "castd_degraded_total", "castd_breaker_state", "castd_breaker_transitions_total"} {
		if !prefix("# HELP " + f + " ") {
			t.Errorf("missing HELP line of %s", f)
		}
	}
	if prefix("castd_peer_up{") {
		t.Error("standalone daemon has castd_peer_up series")
	}
	// Build identity: a labeled castd_build_info sample naming the Go
	// version.
	if !has(func(l string) bool {
		return strings.HasPrefix(l, "castd_build_info{") && strings.Contains(l, "go_version=")
	}) {
		t.Error("no castd_build_info sample with go_version")
	}
	for _, v := range []string{"valid", "invalid"} {
		if !prefix(`cast_verdicts_total{verdict="` + v + `"} `) {
			t.Errorf("missing cast_verdicts_total{verdict=%q}", v)
		}
	}
	for _, l := range lines {
		if l != "" && !strings.HasPrefix(l, "#") && !sampleLine.MatchString(l) {
			t.Errorf("malformed sample line %q", l)
		}
	}
}

func TestSchemadumpCLI(t *testing.T) {
	bin := filepath.Join(buildTools(t), "schemadump")
	_, src, dst, _, _ := fixtures(t)

	out, _, code := run(t, bin, src)
	if code != 0 {
		t.Fatalf("schemadump failed: %d", code)
	}
	for _, want := range []string{"POType1", "shipTo, billTo?, items", "DTD-shaped: true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("schemadump output missing %q:\n%s", want, out)
		}
	}
	// DFA dump.
	out, _, code = run(t, bin, "-dfa", "POType1", src)
	if code != 0 || !strings.Contains(out, "content-model DFA of POType1") {
		t.Fatalf("dfa dump: code=%d out=%q", code, out)
	}
	// Relations.
	out, _, code = run(t, bin, "-relations", dst, src)
	if code != 0 || !strings.Contains(out, "subsumed pairs") {
		t.Fatalf("relations: code=%d out=%q", code, out)
	}
	if !strings.Contains(out, "USAddress") {
		t.Fatalf("relations output missing types:\n%s", out)
	}
	// Unknown type errors out.
	_, _, code = run(t, bin, "-dfa", "Nope", src)
	if code != 2 {
		t.Fatalf("unknown -dfa type should exit 2, got %d", code)
	}
}

func TestSchemadumpDTD(t *testing.T) {
	bin := filepath.Join(buildTools(t), "schemadump")
	dir := t.TempDir()
	dtdPath := filepath.Join(dir, "po.dtd")
	if err := os.WriteFile(dtdPath, []byte(`
		<!ELEMENT po (item*)>
		<!ELEMENT item (#PCDATA)>
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, code := run(t, bin, "-dtd-root", "po", dtdPath)
	if code != 0 || !strings.Contains(out, "item*") {
		t.Fatalf("DTD dump: code=%d out=%q", code, out)
	}
}

func TestCastbenchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("castbench timings are slow in -short mode")
	}
	bin := filepath.Join(buildTools(t), "castbench")
	out, _, code := run(t, bin, "-table1", "-table2", "-table3")
	if code != 0 {
		t.Fatalf("castbench failed: %d", code)
	}
	for _, want := range []string{
		"Table 1", "POType1",
		"Table 2", "1000",
		"Table 3", "Schema Cast",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("castbench output missing %q:\n%s", want, out)
		}
	}
	// Table 3's 1000-item row must show the cast visiting fewer nodes.
	if !strings.Contains(out, "5004") || !strings.Contains(out, "7028") {
		t.Fatalf("Table 3 node counts changed unexpectedly:\n%s", out)
	}
}

func TestXmlcastStreamingCLI(t *testing.T) {
	bin := filepath.Join(buildTools(t), "xmlcast")
	_, src, dst, valid, invalid := fixtures(t)
	out, errOut, code := run(t, bin, "-source", src, "-target", dst, "-stream", "-stats", valid)
	if code != 0 || !strings.Contains(out, "valid") {
		t.Fatalf("streaming cast: code=%d out=%q err=%q", code, out, errOut)
	}
	if !strings.Contains(errOut, "skimmed=") {
		t.Fatalf("expected streaming stats: %q", errOut)
	}
	_, errOut, code = run(t, bin, "-source", src, "-target", dst, "-stream", invalid)
	if code != 1 || !strings.Contains(errOut, "INVALID") {
		t.Fatalf("streaming cast of invalid doc: code=%d err=%q", code, errOut)
	}
	// Streaming full validation (no source).
	out, _, code = run(t, bin, "-target", dst, "-stream", valid)
	if code != 0 || !strings.Contains(out, "valid") {
		t.Fatalf("streaming full: code=%d out=%q", code, out)
	}
}

// cmd/castload is a nested module, so `go test ./...` never compiles it.
// Vetting it here turns an API break in the packages it imports into a
// test failure rather than a benchmark that cannot start. GOWORK, GOPROXY
// and GOFLAGS are pinned so the build resolves repro through castload's
// replace directive alone, offline.
func TestCastloadVets(t *testing.T) {
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = filepath.Join("cmd", "castload")
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off", "GOFLAGS=")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in cmd/castload: %v\n%s", err, out)
	}
}
