package perfbench

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"dpflow/internal/dist"
)

// The dist workload's coordinator self-execs the test binary as its shard
// workers.
func TestMain(m *testing.M) {
	dist.MaybeWorkerChild()
	os.Exit(m.Run())
}

func TestQuantiles(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("Median odd = %v, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Errorf("Median(nil) should be NaN")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := Quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got, want := IQRFrac(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("IQRFrac = %v, want %v", got, want)
	}
	if got := IQRFrac([]float64{7}); got != 0 {
		t.Errorf("IQRFrac of one sample = %v, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it, within
	// [50, 90].
	for n, want := range map[int]float64{0: 50, 14: 50, 20: 50, 40: 75, 50: 80, 100: 90, 1000: 90} {
		if got := TailPercentile(n); got != want {
			t.Errorf("TailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	// A 100 µs parent on 2 workers: capacity 200 µs. Worker A runs tiles
	// [0,40) and [50,90); worker B runs [10,60), overlapping both, and one
	// tile straddles the parent's end.
	tiles := []interval{{us(0), us(40)}, {us(50), us(90)}, {us(10), us(60)}, {us(95), us(120)}}
	if got, want := Covered(0, us(100), tiles, 2), us(40+40+50+5); got != want {
		t.Errorf("Covered on 2 lanes = %v, want %v", got, want)
	}
	if got, want := SelfTime(0, us(100), tiles, 2), us(200-135); got != want {
		t.Errorf("SelfTime on 2 lanes = %v, want %v", got, want)
	}
	// On one lane overlapping children count once: union [0,90) ∪ [95,100).
	if got, want := Covered(0, us(100), tiles, 1), us(95); got != want {
		t.Errorf("Covered on 1 lane = %v, want %v", got, want)
	}
	// Three concurrent children cannot cover more than two lanes.
	three := []interval{{0, us(10)}, {0, us(10)}, {0, us(10)}}
	if got, want := Covered(0, us(10), three, 2), us(20); got != want {
		t.Errorf("Covered capped at lanes = %v, want %v", got, want)
	}
	if got := assignLanes(tiles); !reflect.DeepEqual(got, []int{0, 0, 1, 0}) {
		t.Errorf("assignLanes = %v, want [0 0 1 0]", got)
	}
}

func TestPlanDeterminism(t *testing.T) {
	for i := range Workloads {
		w := &Workloads[i]
		a, b := NewPlan(7, w, passUntraced, 12), NewPlan(7, w, passUntraced, 12)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different plans", w.Name)
		}
		if c := NewPlan(8, w, passUntraced, 12); reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same plan", w.Name)
		}
		if c := NewPlan(7, w, passTraced, 12); reflect.DeepEqual(a, c) {
			t.Errorf("%s: traced and untraced passes share a plan", w.Name)
		}
		if w.IsServe() && len(a.Ops[0].LeafOrder) != len(w.Fork) {
			t.Errorf("%s: leaf order has %d entries, want %d", w.Name, len(a.Ops[0].LeafOrder), len(w.Fork))
		}
	}
	if a, b := NewPlan(7, &Workloads[0], passUntraced, 4), NewPlan(7, &Workloads[1], passUntraced, 4); reflect.DeepEqual(a, b) {
		t.Errorf("two workloads share a plan")
	}
}

// manifest is the committed BENCHMARK.json.
type manifest struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesTables(t *testing.T) {
	want, err := Manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate with: go run ./cmd/dpperf -manifest > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var list strings.Builder
	WriteList(&list)
	for _, w := range Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if !strings.Contains(list.String(), m.Name) {
			t.Errorf("-list omits %s", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Errorf("end-to-end metrics must include setup_s in s, lower is better")
	}
	for _, d := range DeterministicCounts {
		if !seen[d] {
			t.Errorf("deterministic count %s is not a declared metric", d)
		}
	}
}

// TestSmoke runs every workload end to end at 2 reps and checks that each
// metric BENCHMARK.json declares is emitted, finite and with its unit.
// -short keeps one workload of each kind except dist.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	cfg := Config{Seed: 3, reps: 2, TraceOut: t.TempDir() + "/trace.json"}
	if testing.Short() {
		cfg.Workloads = []string{"ge-fj-fine", "sw-manual-wave", "serve-budget"}
	}
	res, err := Run(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Failed(); n != 0 {
		for _, w := range res.Workloads {
			t.Logf("%s: %v", w.Name, w.Errors)
		}
		t.Fatalf("%d ops failed", n)
	}
	if !testing.Short() && len(res.Workloads) != len(m.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json declares %d", len(res.Workloads), len(m.Workloads))
	}

	finite := func(w, name string, v Value, unit string) {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: %s = %v is not finite", w, name, v.Value)
		}
		if v.Unit != unit {
			t.Errorf("%s: %s has unit %q, want %q", w, name, v.Unit, unit)
		}
	}
	declared := map[string]string{}
	for _, p := range m.PerLayer {
		declared[p.Name] = p.Unit
	}
	emitted := map[string]bool{}
	for _, w := range res.Workloads {
		for _, e := range m.EndToEnd {
			v, ok := w.EndToEnd[e.Name]
			if !ok {
				t.Errorf("%s: end-to-end metric %s was not emitted", w.Name, e.Name)
				continue
			}
			finite(w.Name, e.Name, v, e.Unit)
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, e.Name, v.Value)
			}
		}
		if len(w.EndToEnd) != len(m.EndToEnd) {
			t.Errorf("%s: emitted %d end-to-end metrics, BENCHMARK.json declares %d", w.Name, len(w.EndToEnd), len(m.EndToEnd))
		}
		for name, v := range w.PerLayer {
			unit, ok := declared[name]
			if !ok {
				t.Errorf("%s: per-layer metric %s is not in BENCHMARK.json", w.Name, name)
			}
			finite(w.Name, name, v, unit)
			emitted[name] = true
		}
		if v, ok := w.PerLayer["proc.trace_overhead_frac"]; !ok {
			t.Errorf("%s: proc.trace_overhead_frac missing", w.Name)
		} else if v.Value <= -1 {
			t.Errorf("%s: proc.trace_overhead_frac = %v", w.Name, v.Value)
		}

		// The driver's line carries exactly the declared names.
		for traced, want := range map[bool]int{false: len(m.EndToEnd), true: len(m.PerLayer)} {
			line, err := w.ContractLine(traced)
			if err != nil {
				t.Errorf("%s: %v", w.Name, err)
				continue
			}
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]Value
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatalf("%s: contract line: %v", w.Name, err)
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 || len(got.Metrics) != want {
				t.Errorf("%s: contract line (traced=%v) = correct %v, attempted %d, failed %d, %d metrics; want %d metrics",
					w.Name, traced, got.Correct, got.Attempted, got.Failed, len(got.Metrics), want)
			}
		}
	}
	if !testing.Short() {
		for name := range declared {
			if !emitted[name] {
				t.Errorf("per-layer metric %s is declared but no workload emitted it", name)
			}
		}
	}

	// Layer-by-layer expectations that hold at any rep count.
	for _, w := range res.Workloads {
		has := func(prefix string) bool {
			for name := range w.PerLayer {
				if strings.HasPrefix(name, prefix) {
					return true
				}
			}
			return false
		}
		switch w.Name {
		case "ge-cnc-fine":
			if has("forkjoin.") || has("dist.") || has("serve.") {
				t.Errorf("%s reports layers it does not exercise", w.Name)
			}
			for _, name := range []string{"kernels.busy_ms", "cnc.nonkernel_ms", "cnc.modelled_ms", "cnc.unexplained_frac"} {
				if _, ok := w.PerLayer[name]; !ok {
					t.Errorf("%s: %s missing", w.Name, name)
				}
			}
		case "ge-fj-fine":
			if has("cnc.") || has("dist.") {
				t.Errorf("%s reports layers it does not exercise", w.Name)
			}
			if w.PerLayer["forkjoin.executed"] != w.PerLayer["forkjoin.spawned"] {
				t.Errorf("%s: forkjoin.executed != forkjoin.spawned", w.Name)
			}
		case "serve-budget":
			if w.PerLayer["cnc.backpressure_waits"].Value <= 0 || w.PerLayer["cnc.backpressure_stalls"].Value != 0 {
				t.Errorf("%s: backpressure waits %v, stalls %v; want waits > 0 and no stalls", w.Name,
					w.PerLayer["cnc.backpressure_waits"].Value, w.PerLayer["cnc.backpressure_stalls"].Value)
			}
		}
	}

	if info, err := os.Stat(cfg.TraceOut); err != nil || info.Size() == 0 {
		t.Errorf("trace file: %v", err)
	} else if data, err := os.ReadFile(cfg.TraceOut); err == nil {
		var tr struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
			t.Errorf("trace file is not Chrome trace-event JSON: %v", err)
		}
	}
	if leftovers, _ := os.ReadDir("."); true {
		for _, e := range leftovers {
			if strings.HasPrefix(e.Name(), ".dpperf-") {
				t.Errorf("temporary socket directory %s was not removed", e.Name())
			}
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(wall, spread float64) *Result {
		e2e := map[string]Value{}
		for _, m := range EndToEnd {
			e2e[m.Name] = Value{Value: 100, Unit: m.Unit}
		}
		e2e["wall_ms_p50"] = Value{Value: wall, Unit: "ms", Spread: spread}
		return &Result{
			Schema: Schema, Seconds: RunSeconds, Host: Fingerprint{Cores: 2, GoMaxProcs: 2, Workers: 2, Commit: "a"},
			Workloads: []WorkloadResult{{
				Name: "ge-cnc-fine", Attempted: 10, EndToEnd: e2e,
				PerLayer: map[string]Value{"kernels.calls": {Value: 11440, Unit: "count"}},
			}},
		}
	}
	bound := EndToEnd[0].Bound // of wall_ms_p50
	inside, outside := 100*(1+bound/2), 100*(1+bound*3/2)
	var out bytes.Buffer
	if ok, err := Compare(&out, mk(100, 0.01), mk(inside, 0.01)); err != nil || !ok {
		t.Errorf("worse by half the bound: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := Compare(&out, mk(100, 0.01), mk(outside, 0.01)); err != nil || ok || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("worse by 1.5 bounds: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := Compare(&out, mk(100, 0.01), mk(outside, 2*bound)); err != nil || !ok || !strings.Contains(out.String(), "UNRESOLVED") {
		t.Errorf("spread above the bound must read unresolved: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	b := mk(100, 0.01)
	b.Workloads[0].PerLayer["kernels.calls"] = Value{Value: 11441, Unit: "count"}
	if ok, _ := Compare(&out, mk(100, 0.01), b); ok || !strings.Contains(out.String(), "DIFFERS") {
		t.Errorf("a deterministic count that moved must fail:\n%s", out.String())
	}
	b = mk(100, 0.01)
	b.Workloads[0].Failed = 1
	if ok, _ := Compare(&out, mk(100, 0.01), b); ok {
		t.Errorf("a failed op must fail the comparison")
	}
	b = mk(100, 0.01)
	b.Host.Cores = 8
	if _, err := Compare(&out, mk(100, 0.01), b); err == nil {
		t.Errorf("different hosts must be refused")
	}
	b = mk(100, 0.01)
	b.Host.Commit = "b"
	if _, err := Compare(&out, mk(100, 0.01), b); err != nil {
		t.Errorf("different commits are what -compare is for: %v", err)
	}
}
