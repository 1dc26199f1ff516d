package main

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeSeconds is the measured time of one test run: phases of about
// 0.2 s, 0.9 s and 0.4 s, each cut into four windows.
const smokeSeconds = 1500 * time.Millisecond

// smokeSetup builds castd from this checkout into a temporary directory.
func smokeSetup(t *testing.T) (*benchSpec, string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildCastd(context.Background(), root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return spec, bin
}

// TestWorkloads runs every workload untraced and then traced on the same
// seed: every metric of BENCHMARK.json must be printed with its unit, no
// request may fail, and the machine-independent counts must be identical
// across the two runs.
func TestWorkloads(t *testing.T) {
	spec, bin := smokeSetup(t)
	exact := []string{
		"stream.elements_visited", "stream.elements_skimmed", "stream.automaton_steps",
		"stream.values_checked", "stream.skip_ratio",
	}
	singleNode := []string{
		"registry.hit_ratio", "registry.compiles_per_kreq",
		"registry.evictions_per_kreq", "registry.coalesces_per_kreq",
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := generate(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			var failures bytes.Buffer
			o := runOptions{castd: bin, total: smokeSeconds, setups: 1, out: &failures}
			untraced, err := runWorkload(context.Background(), w, in, o)
			if err != nil {
				t.Fatal(err)
			}
			o.traced = true
			traced, err := runWorkload(context.Background(), w, in, o)
			if err != nil {
				t.Fatal(err)
			}
			if failures.Len() > 0 || untraced.failed != 0 || traced.failed != 0 {
				t.Fatalf("requests failed:\n%s", failures.String())
			}
			if e := untraced.metrics["error_rate"]; e != 0 {
				t.Errorf("error_rate = %v, want 0", e)
			}

			sr := &suiteRun{workload: w, metrics: map[string]float64{}}
			sr.add(untraced)
			sr.add(traced)
			var report bytes.Buffer
			sr.print(&report, spec, 1)
			for _, m := range spec.EndToEnd {
				wantLine(t, report.String(), m.Name, m.Unit)
			}
			for _, m := range spec.PerLayer {
				wantLine(t, report.String(), m.Name, m.Unit)
			}
			for name, v := range sr.metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", name, v)
				}
			}

			names := exact
			if w.nodes == 1 {
				names = append(names, singleNode...)
			}
			for _, name := range names {
				a, b := untraced.metrics[name], traced.metrics[name]
				if a != b {
					t.Errorf("%s differs between two runs of seed 1: %v and %v", name, a, b)
				}
			}
		})
	}
}

func wantLine(t *testing.T, report, name, unit string) {
	t.Helper()
	re := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(name) + `\s+\S+ ` + regexp.QuoteMeta(unit) + `(\s|$)`)
	if !re.MatchString(report) {
		t.Errorf("report has no line for %s in %s:\n%s", name, unit, report)
	}
}

// TestFlippedVerdictCounted flips one document's expected verdict: every
// answer for it must then count as a failure.
func TestFlippedVerdictCounted(t *testing.T) {
	_, bin := smokeSetup(t)
	w := findWorkload("msg-small")
	in, err := generate(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.docs[3].valid = !in.docs[3].valid
	var failures bytes.Buffer
	res, err := runWorkload(context.Background(), w, in,
		runOptions{castd: bin, total: smokeSeconds, setups: 1, out: &failures})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 || res.metrics["error_rate"] == 0 {
		t.Fatalf("flipped verdict not counted: failed=%d error_rate=%v", res.failed, res.metrics["error_rate"])
	}
	for _, line := range strings.Split(strings.TrimSpace(failures.String()), "\n") {
		if !strings.Contains(line, "msg-small") || !strings.Contains(line, "document 3 ") || !strings.Contains(line, "verdict") {
			t.Errorf("failure line does not name the workload, document 3 and the verdict: %q", line)
		}
	}
}
