package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpflow/internal/bench"
	"dpflow/internal/core"
	"dpflow/internal/machine"
)

func TestFiguresRegistry(t *testing.T) {
	figs := Figures()
	if len(figs) != 7 {
		t.Fatalf("%d figures, want 7 (fig4-fig9 + figch)", len(figs))
	}
	seen := map[string]bool{}
	for _, f := range figs {
		if seen[f.ID] {
			t.Fatalf("duplicate id %s", f.ID)
		}
		seen[f.ID] = true
		if f.Machine == nil || f.BasesFor == nil || len(f.Ns) == 0 {
			t.Fatalf("%s incomplete", f.ID)
		}
	}
	if _, ok := FigureByID("fig4"); !ok {
		t.Fatal("fig4 missing")
	}
	if ch, ok := FigureByID("figch"); !ok || ch.Bench != "chol" || !ch.Estimated {
		t.Fatalf("figch missing or misconfigured: %+v ok=%v", ch, ok)
	}
	if _, ok := FigureByID("nope"); ok {
		t.Fatal("bogus id found")
	}
}

// TestReportsTable: the one experiment table lists every figure and derived
// report exactly once, sorted, each with a runner. Every entry is something
// "-exp all" runs; the runtime's timing instrument is cmd/dpperf alone, so
// its retired ids must not come back here.
func TestReportsTable(t *testing.T) {
	rs := Reports(&ReportFlags{})
	ids := map[string]bool{}
	for i, r := range rs {
		if r.Run == nil {
			t.Fatalf("report %q has no runner", r.ID)
		}
		if ids[r.ID] {
			t.Fatalf("duplicate report id %q", r.ID)
		}
		ids[r.ID] = true
		if i > 0 && rs[i-1].ID >= r.ID {
			t.Fatalf("reports not sorted: %q before %q", rs[i-1].ID, r.ID)
		}
	}
	for _, f := range Figures() {
		if !ids[f.ID] {
			t.Fatalf("figure %s missing from the report table", f.ID)
		}
	}
	for _, id := range []string{"table1", "crossover", "memory", "dist", "point", "spec"} {
		if !ids[id] {
			t.Fatalf("report table missing %s", id)
		}
	}
	for _, id := range []string{"perf", "perfdiff", "sched"} {
		if ids[id] {
			t.Fatalf("report table lists %s: the runtime is timed by dpperf only", id)
		}
	}
}

// The table is built before dpbench parses its flags, so an entry must read
// them when it runs: a figure picks up the scale and the CSV format set
// after Reports returned.
func TestReportsReadFlagsAtRunTime(t *testing.T) {
	var f ReportFlags
	rs := Reports(&f)
	f.Scale, f.MaxTiles, f.CSV = 3, 64, true
	for _, r := range rs {
		if r.ID != "fig6" {
			continue
		}
		var buf bytes.Buffer
		if err := r.Run(context.Background(), &buf); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(buf.String(), "experiment,machine,bench,") || !strings.Contains(buf.String(), "fig6,EPYC-64,sw,256,") {
			t.Fatalf("fig6 ignored -csv/-scale set after Reports():\n%.300s", buf.String())
		}
	}
}

// A scaled-down fig4 run must produce complete panels with one series per
// variant plus Estimated, every series the same length as the base axis.
func TestRunFig4Scaled(t *testing.T) {
	exp, _ := FigureByID("fig4")
	res, err := exp.RunContext(context.Background(), Options{Scale: 3, MaxTiles: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) == 0 {
		t.Fatal("no panels")
	}
	for _, p := range res.Panels {
		if len(p.Series) != len(core.ParallelVariants)+1 {
			t.Fatalf("n=%d: %d series", p.N, len(p.Series))
		}
		for _, s := range p.Series {
			if len(s.Points) != len(p.Bases) {
				t.Fatalf("n=%d series %s: %d points for %d bases", p.N, s.Label, len(s.Points), len(p.Bases))
			}
			for _, pt := range s.Points {
				if pt.Seconds <= 0 {
					t.Fatalf("non-positive time %v at %+v", pt.Seconds, pt)
				}
			}
		}
	}
	var tbl, csv strings.Builder
	res.WriteTable(&tbl)
	if !strings.Contains(tbl.String(), "Estimated") || !strings.Contains(tbl.String(), "OpenMP") {
		t.Fatalf("table rendering incomplete:\n%s", tbl.String())
	}
	res.WriteCSV(&csv)
	if !strings.Contains(csv.String(), "fig4,EPYC-64,ge,") {
		t.Fatalf("csv rendering incomplete:\n%.200s", csv.String())
	}
	if best := res.Best(); len(best) != len(res.Panels) {
		t.Fatalf("Best() returned %d lines", len(best))
	}
}

// SW figures have no Estimated series.
func TestRunFig6Scaled(t *testing.T) {
	exp, _ := FigureByID("fig6")
	res, err := exp.RunContext(context.Background(), Options{Scale: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Panels {
		if len(p.Series) != len(core.ParallelVariants) {
			t.Fatalf("SW panel has %d series", len(p.Series))
		}
	}
}

func TestSimulatePointAllBenches(t *testing.T) {
	mach := machine.EPYC64()
	for _, b := range bench.All() {
		for _, v := range core.ParallelVariants {
			secs, err := SimulatePoint(mach, b, 1024, 64, v)
			if err != nil {
				t.Fatalf("%v %v: %v", b.Name(), v, err)
			}
			if secs <= 0 {
				t.Fatalf("%v %v: %v seconds", b.Name(), v, secs)
			}
		}
	}
}

// A figure naming a benchmark outside the registry must fail loudly — the
// old shapeOf helper silently defaulted unknown benchmarks to a GE-shaped
// (Triangular) sweep.
func TestExperimentUnknownBenchFailsLoudly(t *testing.T) {
	exp := Experiment{ID: "bogus", Bench: "nonesuch", Machine: machine.EPYC64,
		Ns: []int{2048}, BasesFor: func(int) []int { return []int{64} }}
	if _, err := exp.RunContext(context.Background(), Options{Scale: 3}); !errors.Is(err, bench.ErrUnknownBenchmark) {
		t.Fatalf("Experiment.Run(unknown bench) = %v, want ErrUnknownBenchmark", err)
	}
}

func mustGE(t *testing.T) bench.Benchmark {
	t.Helper()
	ge, err := bench.ByName("ge")
	if err != nil {
		t.Fatal(err)
	}
	return ge
}

func TestBestOverBases(t *testing.T) {
	mach := machine.EPYC64()
	sim := newSimulator(context.Background())
	best, base := sweep{Bases: []int{32, 64, 128}}.bestOverBases(sim, mach, mustGE(t), 2048, core.TunerCnC)
	if sim.err != nil {
		t.Fatal(sim.err)
	}
	if best <= 0 || base == 0 {
		t.Fatalf("best=%v base=%d", best, base)
	}
}

// requireCommitted fails unless every line of out appears verbatim, and in
// order, in the committed results/<id>.txt. The tests regenerate a cheap
// slice of a report; CI regenerates the full file and diffs it.
func requireCommitted(t *testing.T, id, out string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "results", id+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	committed := strings.Split(string(data), "\n")
	i := 0
	for _, line := range strings.Split(out, "\n") {
		for i < len(committed) && committed[i] != line {
			i++
		}
		if i == len(committed) {
			t.Fatalf("results/%s.txt has no line %q (in order) — regenerate it with dpbench -exp %s -quiet:\n%s", id, line, id, out)
		}
		i++
	}
	return committed
}

// The claims reports reproduce their committed rows: swspan whole, and
// bestblock's sw rows (its ge/fw/chol rows simulate graphs of up to 16M
// tasks; CI regenerates the whole file).
func TestClaimsReports(t *testing.T) {
	if testing.Short() {
		t.Skip("claims sweep is slow")
	}
	var sb strings.Builder
	if err := WriteSWSpan(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "swspan") {
		t.Fatal("swspan header missing")
	}
	requireCommitted(t, "swspan", sb.String())
	sb.Reset()
	sw, err := bench.ByName("sw")
	if err != nil {
		t.Fatal(err)
	}
	slice := bestBlock
	slice.Benches = []bench.Benchmark{sw}
	if err := slice.writeBestBlock(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "EPYC-64") {
		t.Fatalf("bestblock output incomplete:\n%s", out)
	}
	committed := strings.Join(requireCommitted(t, "bestblock", out), "\n")
	// The claims loops are registry-driven: every registered benchmark —
	// including CH — must show up in the best-block table, one row per
	// machine and variant.
	if len(bestBlock.Benches) != len(bench.All()) {
		t.Fatal("bestblock no longer sweeps the whole registry")
	}
	for _, mk := range bestBlock.Machines {
		for _, b := range bench.All() {
			for _, v := range core.ParallelVariants {
				if row := fmt.Sprintf("\n%12s %10s %14s ", mk().Name, b.Name(), v); !strings.Contains(committed, row) {
					t.Fatalf("results/bestblock.txt missing the row %q", row)
				}
			}
		}
	}
}

// The crossover report must cover every registered benchmark in both its
// simulated table and its real-run verification block, and every
// verification row must come out ok (errors fail the experiment). The
// simulated rows run at n=2048 only, and every line must match the
// committed results/crossover.txt (CI regenerates the whole file).
func TestCrossoverCoversRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("crossover runs real benchmarks")
	}
	slice := crossover
	slice.Ns = slice.Ns[:1]
	var sb strings.Builder
	if err := slice.writeCrossover(context.Background(), &sb); err != nil {
		t.Fatalf("writeCrossover: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, b := range bench.All() {
		if !strings.Contains(out, b.Name()) {
			t.Fatalf("crossover output missing %s:\n%s", b.Name(), out)
		}
	}
	if !strings.Contains(out, "crossover: best time over base sweep, chol ") || !strings.Contains(out, "verification") {
		t.Fatalf("crossover missing the chol table or the verification block:\n%s", out)
	}
	requireCommitted(t, "crossover", out)
}

func TestTable1Scaled(t *testing.T) {
	if testing.Short() {
		t.Skip("cache trace is slow")
	}
	res, err := RunTable1Context(context.Background(), 16) // n=512
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// The L3 cliff: the ratio at the paper-base-2048 row must be far below
	// the fitting rows, as in the paper.
	var fit, overflow float64
	for _, r := range res.Rows {
		if r.PaperBase == 512 {
			fit = r.L3Ratio
		}
		if r.PaperBase == 2048 {
			overflow = r.L3Ratio
		}
	}
	if fit == 0 || overflow == 0 || overflow > fit/3 {
		t.Fatalf("L3 ratio cliff missing: fit=%v overflow=%v", fit, overflow)
	}
	var sb strings.Builder
	res.WriteTable(&sb)
	if !strings.Contains(sb.String(), "paper L3") {
		t.Fatal("table rendering incomplete")
	}
}

func TestExtensionReports(t *testing.T) {
	if testing.Short() {
		t.Skip("extension sweeps are slow")
	}
	var sb strings.Builder
	if err := WriteRWay(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "data-flow") {
		t.Fatal("rway output incomplete")
	}
	sb.Reset()
	if err := WriteComputeOn(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "compute_on") {
		t.Fatal("computeon output incomplete")
	}
	sb.Reset()
	if err := WriteScaling(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "speedup") {
		t.Fatal("scaling output incomplete")
	}
}

// A pre-cancelled context must abort a sweep before it simulates anything.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exp, _ := FigureByID("fig4")
	if _, err := exp.RunContext(ctx, Options{Scale: 3, MaxTiles: 64}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if _, err := RunTable1Context(ctx, 16); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunTable1Context = %v, want context.Canceled", err)
	}
	var sb strings.Builder
	if err := crossover.writeCrossover(ctx, &sb); !errors.Is(err, context.Canceled) {
		t.Fatalf("crossover = %v, want context.Canceled", err)
	}
	sim := newSimulator(ctx)
	sweep{Bases: []int{64}}.bestOverBases(sim, machine.EPYC64(), mustGE(t), 2048, core.TunerCnC)
	if !errors.Is(sim.err, context.Canceled) {
		t.Fatalf("bestOverBases = %v, want context.Canceled", sim.err)
	}
}

// A negative scale used to panic with a negative shift amount.
func TestRunContextRejectsNegativeScale(t *testing.T) {
	exp, _ := FigureByID("fig6")
	if _, err := exp.RunContext(context.Background(), Options{Scale: -1}); err == nil {
		t.Fatal("RunContext accepted Scale -1")
	}
	f := pointFlags()
	f.Scale = -1
	if err := f.Validate(); err == nil {
		t.Fatal("Validate accepted -scale -1")
	}
}

func pointFlags() *ReportFlags {
	return &ReportFlags{Bench: "sw", N: 512, Base: 64, Machine: "epyc"}
}

func runReport(t *testing.T, f *ReportFlags, id string) (string, error) {
	t.Helper()
	for _, r := range Reports(f) {
		if r.ID == id {
			var sb strings.Builder
			err := r.Run(context.Background(), &sb)
			return sb.String(), err
		}
	}
	t.Fatalf("no report %s", id)
	return "", nil
}

// The point view applies gep's rule for real runs — n a power of two,
// base >= 1 — instead of dividing by zero (n = 0), simulating a recursion
// no runtime accepts (n = 100), or turning base 0 into a 45M-task DAG.
func TestPointRejectsMalformedInput(t *testing.T) {
	if err := pointFlags().Validate(); err != nil {
		t.Fatalf("valid point flags rejected: %v", err)
	}
	for _, bad := range []func(f *ReportFlags){
		func(f *ReportFlags) { f.N = 0 },
		func(f *ReportFlags) { f.N = 100 },
		func(f *ReportFlags) { f.N = -512 },
		func(f *ReportFlags) { f.Base = 0 },
		func(f *ReportFlags) { f.Machine = "cray" },
	} {
		f := pointFlags()
		bad(f)
		if err := f.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", *f)
		}
		if _, err := runReport(t, f, "point"); err == nil {
			t.Fatalf("point ran with %+v", *f)
		}
	}
	f := pointFlags()
	f.Bench = "nonesuch"
	_, err := runReport(t, f, "point")
	if !errors.Is(err, bench.ErrUnknownBenchmark) || strings.Count(err.Error(), bench.NameList()) != 1 {
		t.Fatalf("unknown benchmark: %v, want ErrUnknownBenchmark naming the registry once", err)
	}
}

func TestPointSections(t *testing.T) {
	out, err := runReport(t, pointFlags(), "point")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sw n=512 base=64", "[data-flow DAG]", "[fork-join DAG]", "parallelism",
		"[simulated execution on 64 processors]", "[processor occupancy over time", "Estimated"} {
		if !strings.Contains(out, want) {
			t.Fatalf("point output missing %q:\n%s", want, out)
		}
	}
}

// spec prints exactly the benchmark's specification graph renderings.
func TestSpecMatchesSpecGraph(t *testing.T) {
	for _, b := range bench.All() {
		f := &ReportFlags{Bench: b.Name()}
		text, err := runReport(t, f, "spec")
		if err != nil {
			t.Fatal(err)
		}
		f.Dot = true
		dot, err := runReport(t, f, "spec")
		if err != nil {
			t.Fatal(err)
		}
		g := b.SpecGraph()
		if text != g.Describe() || dot != g.Dot() {
			t.Fatalf("%s: spec output differs from SpecGraph().Describe()/Dot()", b.Name())
		}
	}
}
