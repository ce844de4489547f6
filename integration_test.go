// Integration tests spanning the whole stack: real runtimes, DAG builders,
// cost model and simulator exercised together the way the commands and
// examples use them.
package dpflow_test

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dpflow/internal/bench"
	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/dag"
	"dpflow/internal/ge"
	"dpflow/internal/harness"
	"dpflow/internal/machine"
	"dpflow/internal/matrix"
	"dpflow/internal/model"
	"dpflow/internal/simsched"
)

// The CnC task census of a real GE run must equal the analytic DAG size,
// tying the runtime and the simulation layer together.
func TestRuntimeMatchesDAGCensus(t *testing.T) {
	const (
		n    = 64
		base = 8
	)
	rng := rand.New(rand.NewSource(5))
	x := matrix.NewSquare(n)
	x.FillDiagonallyDominant(rng)
	stats, err := runGE(x, base, 2, core.ManualCnC, nil)
	if err != nil {
		t.Fatal(err)
	}
	geBench, err := bench.ByName("ge")
	if err != nil {
		t.Fatal(err)
	}
	g := geBench.Dataflow(n / base)
	if stats.BaseTasks != g.Len() {
		t.Fatalf("runtime executed %d base tasks, DAG has %d", stats.BaseTasks, g.Len())
	}
}

// Simulated figure points must be internally consistent: variant times at
// the same point differ only by overheads (same exec work), so none can be
// more than ~100× apart at a moderate configuration.
func TestSimulationSanityEnvelope(t *testing.T) {
	mach := machine.EPYC64()
	geBench, err := bench.ByName("ge")
	if err != nil {
		t.Fatal(err)
	}
	var times []float64
	for _, v := range core.ParallelVariants {
		secs, err := harness.SimulatePoint(mach, geBench, 2048, 64, v)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, secs)
	}
	lo, hi := times[0], times[0]
	for _, x := range times {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if hi/lo > 100 {
		t.Fatalf("variant spread too wide: %v", times)
	}
}

// The Estimated series must track the simulated data-flow execution within
// an order of magnitude across a broad sweep (the paper's model is crude
// but never wild).
func TestEstimatedTracksSimulated(t *testing.T) {
	mach := machine.SKYLAKE192()
	geBench, err := bench.ByName("ge")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1024, 4096} {
		for _, base := range []int{32, 128} {
			est := model.EstimatedTime(mach, geBench, n, base)
			sim, err := harness.SimulatePoint(mach, geBench, n, base, core.NativeCnC)
			if err != nil {
				t.Fatal(err)
			}
			if ratio := sim / est; ratio < 0.2 || ratio > 30 {
				t.Fatalf("n=%d base=%d: sim %v vs est %v (ratio %v)", n, base, sim, est, ratio)
			}
		}
	}
}

// JSON export round-trips the figure structure.
func TestFigureJSONExport(t *testing.T) {
	exp, _ := harness.FigureByID("fig6")
	res, err := exp.RunContext(context.Background(), harness.Options{Scale: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"experiment": "fig6"`, `"label": "CnC_tuner"`, `"machine": "EPYC-64"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %s:\n%.300s", want, out)
		}
	}
}

// A GE system whose size is not a power of two is solved via PadPow2 with
// an identity-extended tail — the documented workflow for irregular sizes.
func TestNonPowerOfTwoViaPadding(t *testing.T) {
	const n = 23 // 22 unknowns
	rng := rand.New(rand.NewSource(8))
	sys, want := ge.NewSystem(n, rng)
	padded := matrix.PadPow2(sys, 0)
	for i := n; i < padded.Rows(); i++ {
		padded.Set(i, i, 1) // identity tail keeps pivots non-zero
	}
	if _, err := runGE(padded, 4, 2, core.NativeCnC, nil); err != nil {
		t.Fatal(err)
	}
	solved := padded.View(0, 0, n, n).Clone()
	got, err := ge.BackSubstitute(solved)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// Deadlock diagnostics surface through the public benchmark APIs when a
// dependency can never be satisfied (here: a consumer on a never-produced
// item), matching the paper's "deadlocks are straightforward to identify".
func TestDeadlockDiagnosticsEndToEnd(t *testing.T) {
	g := cnc.NewGraph("e2e-deadlock", 2)
	items := cnc.NewItemCollection[int, bool](g, "missing")
	tags := cnc.NewTagCollection[int](g, "tg", false)
	step := cnc.NewStepCollection(g, "reader", func(i int) error {
		items.Get(i + 1000)
		return nil
	})
	tags.Prescribe(step)
	err := g.Run(func() { tags.Put(1) })
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "missing[1001]") {
		t.Fatalf("diagnostic lacks the blocking item: %v", err)
	}
}

// The simulator's variant ordering is stable under scaling of all cost
// constants (scale invariance: doubling every cost doubles every makespan).
func TestSimulatorScaleInvariance(t *testing.T) {
	geBench, err := bench.ByName("ge")
	if err != nil {
		t.Fatal(err)
	}
	g := geBench.Dataflow(8)
	var c simsched.Costs
	for k := 0; k < dag.NumKinds; k++ {
		c.Exec[k] = float64(k + 1)
		c.Overhead[k] = 0.1
	}
	r1, err := simsched.Simulate(g, 4, c)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < dag.NumKinds; k++ {
		c.Exec[k] *= 2
		c.Overhead[k] *= 2
	}
	r2, err := simsched.Simulate(g, 4, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2.Makespan-2*r1.Makespan) > 1e-9 {
		t.Fatalf("not scale invariant: %v vs 2*%v", r2.Makespan, r1.Makespan)
	}
}
