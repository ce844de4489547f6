package harness

import (
	"context"
	"strings"
	"testing"

	"dpflow/internal/bench"
)

// TestWriteMemory runs the bounded-memory claims report end to end: every
// row must come out leak-free, no claim may fail (WriteMemory returns an
// error when one does), and every registered benchmark must appear in both
// modes.
func TestWriteMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory report runs 24 CnC graphs")
	}
	var sb strings.Builder
	if err := WriteMemory(context.Background(), &sb); err != nil {
		t.Fatalf("WriteMemory: %v\n%s", err, sb.String())
	}
	out := sb.String()
	want := []string{"# memory", "unbounded", "bounded", "leak-free"}
	for _, b := range bench.All() {
		want = append(want, " "+b.Name()+" ")
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("output missing %q:\n%s", w, out)
		}
	}
	for _, bad := range []string{"LEAK", "OVER-LIMIT", "FAIL"} {
		if strings.Contains(out, bad) {
			t.Fatalf("output contains %q:\n%s", bad, out)
		}
	}
}
