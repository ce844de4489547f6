package determinacy

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestEnterAttributesNested(t *testing.T) {
	dc := NewDisciplineChecker()
	if got := dc.Current(); got != "(unattributed)" {
		t.Fatalf("Current outside any Enter = %q", got)
	}
	exit := dc.Enter("step@1")
	if got := dc.Current(); got != "step@1" {
		t.Fatalf("Current = %q, want step@1", got)
	}
	exit()
	if got := dc.Current(); got != "(unattributed)" {
		t.Fatalf("Current after exit = %q", got)
	}
}

func TestEnterIsPerGoroutine(t *testing.T) {
	dc := NewDisciplineChecker()
	exit := dc.Enter("main-step")
	defer exit()
	var got string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got = dc.Current()
	}()
	wg.Wait()
	if got != "(unattributed)" {
		t.Fatalf("other goroutine saw label %q, want (unattributed)", got)
	}
}

func TestDoublePutNamesBothWriters(t *testing.T) {
	dc := NewDisciplineChecker()
	exitA := dc.Enter("writer-a@0")
	dc.RecordPut("out", 7, 2, "10")
	exitA()
	exitB := dc.Enter("writer-b@0")
	e := dc.DoublePut("out", 7, "11")
	exitB()
	if e.FirstPutBy != "writer-a@0" || e.SecondPutBy != "writer-b@0" {
		t.Fatalf("writers = %q, %q", e.FirstPutBy, e.SecondPutBy)
	}
	if !e.Differs {
		t.Fatal("Differs = false for conflicting values")
	}
	msg := e.Error()
	for _, want := range []string{"write-once violation", "out[7]", "writer-a@0", "writer-b@0", "10", "11"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q missing %q", msg, want)
		}
	}
	if err := dc.Err(); err == nil {
		t.Fatal("Err() nil after a recorded violation")
	}
}

func TestDoublePutEqualValues(t *testing.T) {
	dc := NewDisciplineChecker()
	dc.RecordPut("out", 1, -1, "5")
	e := dc.DoublePut("out", 1, "5")
	if e.Differs {
		t.Fatal("Differs = true for identical values")
	}
	if !strings.Contains(e.Error(), "equal values") {
		t.Fatalf("message %q should say equal values", e.Error())
	}
}

func TestOverdrawNamesConsumers(t *testing.T) {
	dc := NewDisciplineChecker()
	dc.RecordPut("items", "k", 2, "v")
	for _, step := range []string{"reader-b@1", "reader-a@0"} {
		exit := dc.Enter(step)
		dc.RecordGet("items", "k")
		dc.RecordRelease("items", "k")
		exit()
	}
	exit := dc.Enter("greedy@9")
	e := dc.Overdraw("items", "k", "get")
	exit()
	if e.By != "greedy@9" || e.Declared != 2 {
		t.Fatalf("By = %q Declared = %d, want greedy@9 / 2", e.By, e.Declared)
	}
	// Consumers are sorted for deterministic reports.
	if len(e.Consumers) != 2 || e.Consumers[0] != "reader-a@0" || e.Consumers[1] != "reader-b@1" {
		t.Fatalf("Consumers = %v", e.Consumers)
	}
	for _, want := range []string{"overdraw", "items[k]", "declared 2", "greedy@9", "over-get"} {
		if !strings.Contains(e.Error(), want) {
			t.Errorf("message %q missing %q", e.Error(), want)
		}
	}
}

func TestViolationsSortedAndErrMinimum(t *testing.T) {
	dc := NewDisciplineChecker()
	dc.RecordPut("z", 1, -1, "1")
	dc.DoublePut("z", 1, "2")
	dc.RecordPut("a", 1, -1, "1")
	dc.DoublePut("a", 1, "2")
	v := dc.Violations()
	if len(v) != 2 {
		t.Fatalf("got %d violations, want 2", len(v))
	}
	if v[0].Error() > v[1].Error() {
		t.Fatal("Violations not sorted by message")
	}
	if dc.Err().Error() != v[0].Error() {
		t.Fatal("Err() is not the message-order minimum")
	}
}

func TestFingerprintAndDiff(t *testing.T) {
	a := NewDisciplineChecker()
	a.RecordPut("out", 1, 1, "10")
	a.RecordPut("out", 2, 1, "20")
	b := NewDisciplineChecker()
	b.RecordPut("out", 1, 1, "10")
	b.RecordPut("out", 2, 1, "21")
	b.RecordPut("out", 3, 1, "30")

	if diff := DiffFingerprints(a.Fingerprint(), a.Fingerprint()); len(diff) != 0 {
		t.Fatalf("self-diff = %v, want empty", diff)
	}
	diff := DiffFingerprints(a.Fingerprint(), b.Fingerprint())
	if len(diff) != 2 {
		t.Fatalf("diff = %v, want value mismatch on out[2] and missing out[3]", diff)
	}
	if !strings.Contains(diff[0], "out[2]") || !strings.Contains(diff[0], "20 vs 21") {
		t.Errorf("diff[0] = %q", diff[0])
	}
	if !strings.Contains(diff[1], "out[3]") || !strings.Contains(diff[1], "second run") {
		t.Errorf("diff[1] = %q", diff[1])
	}
}

func TestDisciplineStats(t *testing.T) {
	dc := NewDisciplineChecker()
	dc.RecordPut("c", 1, 1, "x")
	dc.RecordGet("c", 1)
	dc.RecordRelease("c", 1)
	dc.Overdraw("c", 1, "release")
	st := dc.Stats()
	want := DisciplineStats{Puts: 1, Gets: 1, Releases: 1, Items: 1, Violations: 1}
	if st != want {
		t.Fatalf("Stats() = %+v, want %+v", st, want)
	}
}

// Reads turns the release ledger into the run's item-level dependency
// graph: each item maps to what its producing step released.
func TestReads(t *testing.T) {
	dc := NewDisciplineChecker()
	put := func(step, key string, reads ...string) {
		exit := dc.Enter(step)
		defer exit()
		for _, r := range reads {
			dc.RecordRelease("c", r)
		}
		dc.RecordPut("c", key, 1, "true")
	}
	put("s@a", "a")
	put("s@b", "b", "a")
	put("s@c", "c", "b", "a")
	got := dc.Reads()
	want := map[string][]string{"c[a]": nil, "c[b]": {"c[a]"}, "c[c]": {"c[a]", "c[b]"}}
	if len(got) != len(want) {
		t.Fatalf("Reads = %v, want %v", got, want)
	}
	for item, reads := range want {
		if fmt.Sprint(got[item]) != fmt.Sprint(reads) {
			t.Fatalf("Reads[%s] = %v, want %v", item, got[item], reads)
		}
	}
}
