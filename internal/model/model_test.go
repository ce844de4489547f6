package model

import (
	"math"
	"testing"

	"dpflow/internal/bench"
	"dpflow/internal/core"
	"dpflow/internal/dag"
	"dpflow/internal/gep"
	"dpflow/internal/machine"
	"dpflow/internal/simsched"
)

func mustBench(t *testing.T, name string) bench.Benchmark {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The Table I mechanism: per-level effective misses must jump exactly when
// three blocks stop fitting — at base 256 for Skylake's 1MB L2 (3·256²·8 =
// 1.5MB) and at base 2048 for its 32MB L3 (3·2048²·8 = 96MB), matching the
// paper's observed drops after 128 (L2) and 1024 (L3).
func TestFitThresholdsSkylake(t *testing.T) {
	mach := machine.SKYLAKE192()
	if !mach.L2.Fits(bench.WorkingSetBytes(128)) {
		t.Fatal("3 blocks of 128² must fit Skylake L2")
	}
	if mach.L2.Fits(bench.WorkingSetBytes(256)) {
		t.Fatal("3 blocks of 256² must not fit Skylake L2")
	}
	if !mach.L3.Fits(bench.WorkingSetBytes(1024)) {
		t.Fatal("3 blocks of 1024² must fit Skylake L3 share")
	}
	if mach.L3.Fits(bench.WorkingSetBytes(2048)) {
		t.Fatal("3 blocks of 2048² must not fit Skylake L3 share")
	}
}

func TestExecTimePrefetchAdvantage(t *testing.T) {
	mach := machine.EPYC64()
	ge := mustBench(t, "ge")
	fj := ExecTime(mach, ge, dag.KindD, 128, true)
	df := ExecTime(mach, ge, dag.KindD, 128, false)
	if fj >= df {
		t.Fatalf("fork-join task (%v) should be cheaper than data-flow (%v)", fj, df)
	}
	flops := ge.Flops(dag.KindD, 128) * mach.FlopTime
	if fj < flops {
		t.Fatalf("prefetching cannot beat pure compute time")
	}
}

func TestCostsForVariantOrdering(t *testing.T) {
	mach := machine.EPYC64()
	ge := mustBench(t, "ge")
	tasks := ge.TotalTasks(64)
	omp := CostsFor(mach, ge, 1024, 16, core.OMPTasking, tasks)
	nat := CostsFor(mach, ge, 1024, 16, core.NativeCnC, tasks)
	tun := CostsFor(mach, ge, 1024, 16, core.TunerCnC, tasks)
	man := CostsFor(mach, ge, 1024, 16, core.ManualCnC, tasks)

	d := dag.KindD
	if !(omp.Overhead[d] < tun.Overhead[d] && tun.Overhead[d] < nat.Overhead[d]) {
		t.Fatalf("overhead ordering wrong: omp=%v tuner=%v native=%v",
			omp.Overhead[d], tun.Overhead[d], nat.Overhead[d])
	}
	if man.Startup <= 0 || omp.Startup != 0 || nat.Startup != 0 {
		t.Fatalf("startup terms wrong: manual=%v omp=%v native=%v",
			man.Startup, omp.Startup, nat.Startup)
	}
	if omp.Exec[d] >= nat.Exec[d] {
		t.Fatalf("fork-join exec %v should be below data-flow exec %v (prefetch)",
			omp.Exec[d], nat.Exec[d])
	}
	if omp.Overhead[dag.KindJoin] <= 0 {
		t.Fatal("joins must cost something under OMP")
	}
}

// End-to-end model sanity: simulated GE times on EPYC-64 are in the broad
// magnitude range the paper reports (seconds to hundreds of seconds), and
// the per-base-size curve has the U shape: the best base size is interior.
func TestSimulatedGEMagnitudeAndShape(t *testing.T) {
	mach := machine.EPYC64()
	ge := mustBench(t, "ge")
	n := 4096
	var times []float64
	bases := []int{16, 64, 128, 256, 512, 1024}
	for _, base := range bases {
		tiles := n / gep.BaseSize(n, base)
		g := ge.Dataflow(tiles)
		c := CostsFor(mach, ge, n, base, core.NativeCnC, g.Len())
		r, err := simsched.Simulate(g, mach.Cores, c)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, r.Makespan)
	}
	best := 0
	for i, v := range times {
		if v < times[best] {
			best = i
		}
	}
	if best == 0 || best == len(times)-1 {
		t.Fatalf("no interior optimum: times=%v (bases %v)", times, bases)
	}
	if times[best] < 0.05 || times[best] > 500 {
		t.Fatalf("best simulated time %.3gs outside plausible range (times=%v)", times[best], times)
	}
}

// bestTime is the minimum simulated makespan over a base-size sweep — the
// quantity the paper's "X outperforms Y" statements refer to (each variant
// runs at its own best block size).
func bestTime(t *testing.T, mach *machine.Machine, b bench.Benchmark, n int, v core.Variant, bases []int) float64 {
	t.Helper()
	best := math.Inf(1)
	for _, base := range bases {
		if base > n/2 {
			continue
		}
		tiles := n / gep.BaseSize(n, base)
		var g dag.Graph
		if v == core.OMPTasking {
			g = b.ForkJoin(tiles)
		} else {
			g = b.Dataflow(tiles)
		}
		r, err := simsched.Simulate(g, mach.Cores, CostsFor(mach, b, n, base, v, g.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if r.Makespan < best {
			best = r.Makespan
		}
	}
	return best
}

// The paper's headline claims, §I and §IV-B:
//  1. Fixed machine, growing input (GE/FW): data-flow wins small problems,
//     fork-join wins large ones.
//  2. Fixed problem, more cores: data-flow wins on the bigger machine even
//     where fork-join won on the smaller one.
//  3. SW: data-flow wins at every size (joins block the wavefront).
func TestCrossoverClaims(t *testing.T) {
	bases := []int{32, 64, 128, 256, 512}
	epyc, skx := machine.EPYC64(), machine.SKYLAKE192()
	ge, sw := mustBench(t, "ge"), mustBench(t, "sw")

	// Claim 1 on EPYC-64: GE small vs large.
	smallDF := bestTime(t, epyc, ge, 2048, core.TunerCnC, bases)
	smallFJ := bestTime(t, epyc, ge, 2048, core.OMPTasking, bases)
	if smallDF >= smallFJ {
		t.Fatalf("GE 2K on EPYC: data-flow %v should beat fork-join %v", smallDF, smallFJ)
	}
	largeDF := bestTime(t, epyc, ge, 8192, core.NativeCnC, bases)
	largeFJ := bestTime(t, epyc, ge, 8192, core.OMPTasking, bases)
	if largeFJ >= largeDF {
		t.Fatalf("GE 8K on EPYC: fork-join %v should beat data-flow %v", largeFJ, largeDF)
	}

	// Claim 2: the same 8K GE problem on 192 cores flips back to data-flow.
	skxDF := bestTime(t, skx, ge, 8192, core.NativeCnC, bases)
	skxFJ := bestTime(t, skx, ge, 8192, core.OMPTasking, bases)
	if skxDF >= skxFJ {
		t.Fatalf("GE 8K on SKYLAKE-192: data-flow %v should beat fork-join %v", skxDF, skxFJ)
	}

	// Claim 3: SW favours data-flow at every size on both machines.
	for _, mach := range []*machine.Machine{epyc, skx} {
		for _, n := range []int{2048, 8192, 16384} {
			df := bestTime(t, mach, sw, n, core.NativeCnC, bases)
			fj := bestTime(t, mach, sw, n, core.OMPTasking, bases)
			if df >= fj {
				t.Fatalf("SW n=%d on %s: data-flow %v should beat fork-join %v", n, mach.Name, df, fj)
			}
		}
	}
}

func TestEstimatedTimePositiveAndScales(t *testing.T) {
	mach := machine.SKYLAKE192()
	ge := mustBench(t, "ge")
	small := EstimatedTime(mach, ge, 2048, 256)
	large := EstimatedTime(mach, ge, 16384, 256)
	if small <= 0 || large <= small {
		t.Fatalf("estimated times: 2K=%v 16K=%v", small, large)
	}
	if sw := EstimatedTime(mach, mustBench(t, "sw"), 2048, 256); sw <= 0 {
		t.Fatalf("SW estimated = %v", sw)
	}
	// CH prices like a triangular GE over half the tiles: positive, and
	// below GE at equal n and base.
	ch := EstimatedTime(mach, mustBench(t, "chol"), 2048, 256)
	if ch <= 0 || ch >= small {
		t.Fatalf("CH estimated = %v, want in (0, GE=%v)", ch, small)
	}
}

func TestEstimatedMaxMissesMonotoneInN(t *testing.T) {
	ge := mustBench(t, "ge")
	a := EstimatedMaxMisses(ge, 2048, 128, 64)
	b := EstimatedMaxMisses(ge, 4096, 128, 64)
	if b <= a {
		t.Fatalf("bound not growing with n: %v vs %v", a, b)
	}
	fw := mustBench(t, "fw")
	if fwB := EstimatedMaxMisses(fw, 1024, 128, 64); fwB <= EstimatedMaxMisses(ge, 1024, 128, 64) {
		t.Fatalf("FW (cube) bound should exceed GE (triangular): %v", fwB)
	}
}

func TestDescribe(t *testing.T) {
	for _, b := range bench.All() {
		if s := Describe(machine.EPYC64(), b, 1024, 64); s == "" {
			t.Fatalf("%s: empty description", b.Name())
		}
	}
}
