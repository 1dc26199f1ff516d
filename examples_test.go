package revalidate_test

// Integration smoke tests for the runnable examples: each must build, run
// to completion, and print its expected landmark lines.

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("example builds are slow in -short mode")
	}
	cases := []struct {
		name  string
		wants []string
	}{
		{"quickstart", []string{"✓ valid under v2", "✗ not valid under v2", "subtrees skipped as subsumed"}},
		{"schemaevolution", []string{"triaging the archive", "repaired", "0 need manual attention"}},
		{"messagebroker", []string{"routed 200 messages", "schema cast (streaming)", "% of the nodes"}},
		{"editor", []string{"editing a purchase order", "examined", "follows the edit"}},
	}
	dir := t.TempDir()
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			bin := filepath.Join(dir, c.name)
			build := exec.Command("go", "build", "-o", bin, "./examples/"+c.name)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, out)
			}
			out, err := exec.Command(bin).CombinedOutput()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
			for _, want := range c.wants {
				if !strings.Contains(string(out), want) {
					t.Fatalf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}
