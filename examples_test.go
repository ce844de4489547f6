// examples_test builds and runs every example binary end-to-end — the
// examples are documentation, and documentation that does not run is a
// lie. Skipped under -short (each example takes a second or two).
package dpflow_test

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dpflow/internal/bench"
)

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples are slow")
	}
	cases := []struct {
		dir    string
		args   []string
		expect string
	}{
		{"examples/quickstart", nil, "data-flow matches serial:  true"},
		{"examples/gauss", []string{"-n", "128", "-base", "16"}, "max |x-x*|"},
		{"examples/alignment", []string{"-n", "128", "-base", "16"}, "wavefront width"},
		{"examples/apsp", []string{"-v", "64", "-base", "16"}, "ring-graph oracle"},
		{"examples/spanstudy", nil, "identical results"},
		{"examples/matrixchain", []string{"-n", "64", "-base", "16"}, "dependency fan-in"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			args := append([]string{"run", "./" + c.dir}, c.args...)
			out, err := exec.Command("go", args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", c.dir, err, out)
			}
			if !strings.Contains(string(out), c.expect) {
				t.Fatalf("%s output missing %q:\n%s", c.dir, c.expect, out)
			}
			if strings.Contains(string(out), "MISMATCH") {
				t.Fatalf("%s reported a mismatch:\n%s", c.dir, out)
			}
		})
	}
}

func TestCommandsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("commands are slow")
	}
	cases := []struct {
		args   []string
		expect string
	}{
		{[]string{"run", "./cmd/dpbench", "-list"}, "fig4"},
		{[]string{"run", "./cmd/dpbench", "-exp", "fig6", "-scale", "3", "-quiet"}, "CnC_tuner"},
		{[]string{"run", "./cmd/dpbench", "-exp", "swspan"}, "T^lg3"},
		{[]string{"run", "./cmd/dpbench", "-exp", "point", "-bench", "sw", "-n", "512", "-base", "64"}, "parallelism"},
		{[]string{"run", "./cmd/dpbench", "-exp", "spec", "-bench", "ge"}, "<funcA_tags> :: (funcA);"},
		{[]string{"run", "./cmd/dpbench", "-exp", "spec", "-bench", "fw", "-dot"}, "digraph"},
	}
	for _, c := range cases {
		c := c
		t.Run(strings.Join(c.args[1:], "_"), func(t *testing.T) {
			out, err := exec.Command("go", c.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%v failed: %v\n%s", c.args, err, out)
			}
			if !strings.Contains(string(out), c.expect) {
				t.Fatalf("%v output missing %q:\n%.400s", c.args, c.expect, out)
			}
		})
	}
}

// Malformed flags are usage errors (exit 2) named on stderr, never a
// panic or a silently repaired value.
func TestDpbenchRejectsMalformedFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("commands are slow")
	}
	bin := filepath.Join(t.TempDir(), "dpbench")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/dpbench").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-exp", "fig6", "-scale", "-1"},
		{"-exp", "point", "-n", "0"},
		{"-exp", "point", "-n", "100"},
		{"-exp", "point", "-base", "0"},
		{"-exp", "point", "-machine", "cray"},
		{"-exp", "spec", "-bench", "nonesuch"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.HasPrefix(string(out), "dpbench: ") || strings.Contains(string(out), "panic") {
			t.Fatalf("dpbench %v: err %v, want exit 2 without a panic:\n%s", args, err, out)
		}
		if strings.Count(string(out), bench.NameList()) > 1 {
			t.Fatalf("dpbench %v lists the registry twice:\n%s", args, out)
		}
	}
}

// TestDpverifyCoversRegistry runs the correctness matrix the way CI does
// (smaller): it must pass, and list every registered benchmark and the
// hand-wired par without a failing row.
func TestDpverifyCoversRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("commands are slow")
	}
	out, err := exec.Command("go", "run", "./cmd/dpverify", "-n", "64", "-workers", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("dpverify failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "all checks passed") || strings.Contains(string(out), "ERROR") {
		t.Fatalf("dpverify did not pass cleanly:\n%s", out)
	}
	names := []string{"par"}
	for _, b := range bench.All() {
		names = append(names, b.Name())
	}
	for _, name := range names {
		if !strings.Contains(string(out), "\n"+name+" ") {
			t.Fatalf("dpverify output has no %q rows:\n%s", name, out)
		}
	}
}
