package revalidate_test

// Integration tests for the command-line tools: each binary is compiled
// once into a temp dir and driven through its main paths.

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
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
	// Repair mode emits corrected XML on stdout.
	out, errOut, code = run(t, bin, "-source", src, "-target", dst, "-repair", invalid)
	if code != 0 {
		t.Fatalf("repair: code=%d err=%q", code, errOut)
	}
	if !strings.Contains(out, "<billTo>") || !strings.Contains(errOut, "1 inserts") {
		t.Fatalf("repair output wrong:\nstdout=%q\nstderr=%q", out, errOut)
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
}

// TestCastdSmoke drives the real castd binary end to end: start it on an
// ephemeral port, register the paper's schema pair over HTTP, cast a
// valid and an invalid purchase order, then SIGTERM for a graceful exit.
func TestCastdSmoke(t *testing.T) {
	bin := filepath.Join(buildTools(t), "castd")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-drain", "5s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

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

	httpDo := func(method, url, body string) (int, string) {
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

	if code, body := httpDo("GET", base+"/healthz", ""); code != 200 {
		t.Fatalf("healthz: %d %s", code, body)
	}
	if code, body := httpDo("PUT", base+"/schemas/v1", wgen.Figure2XSD(true, 100)); code != 200 {
		t.Fatalf("register v1: %d %s", code, body)
	}
	if code, body := httpDo("PUT", base+"/schemas/v2", wgen.Figure2XSD(false, 100)); code != 200 {
		t.Fatalf("register v2: %d %s", code, body)
	}
	withBill := string(wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: 3, IncludeBillTo: true, Seed: 1})))
	without := string(wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: 3, IncludeBillTo: false, Seed: 1})))
	if code, body := httpDo("POST", base+"/cast/v1/v2", withBill); code != 200 || !strings.Contains(body, `"valid":true`) {
		t.Fatalf("cast valid doc: %d %s", code, body)
	}
	if code, body := httpDo("POST", base+"/cast/v1/v2", without); code != 200 || !strings.Contains(body, `"valid":false`) {
		t.Fatalf("cast invalid doc: %d %s", code, body)
	}
	if code, body := httpDo("GET", base+"/pairs/v1/v2", ""); code != 200 || !strings.Contains(body, `"alwaysValid":false`) {
		t.Fatalf("pairs: %d %s", code, body)
	}
	if code, body := httpDo("GET", base+"/metrics", ""); code != 200 ||
		!strings.Contains(body, "registry_compiles_total 1") ||
		!strings.Contains(body, "cast_subtrees_skipped_total") {
		t.Fatalf("metrics: %d %s", code, body)
	}
	if code, body := httpDo("GET", base+"/metrics.json", ""); code != 200 || !strings.Contains(body, `"compiles":1`) {
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
