package simsched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dpflow/internal/bench"
	"dpflow/internal/dag"
)

// benchmark resolves a registry entry, whose task graphs the tests
// simulate.
func benchmark(name string) bench.Benchmark {
	b, err := bench.ByName(name)
	if err != nil {
		panic(err)
	}
	return b
}

// unitCosts charges 1s per task and nothing for joins or overheads.
func unitCosts() Costs {
	var c Costs
	for k := 0; k < dag.NumKinds; k++ {
		if dag.Kind(k) != dag.KindJoin {
			c.Exec[k] = 1
		}
	}
	return c
}

func TestSingleProcessorEqualsWork(t *testing.T) {
	g := benchmark("ge").Dataflow(4)
	c := unitCosts()
	r, err := Simulate(g, 1, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Makespan-r.Work) > 1e-9 {
		t.Fatalf("P=1 makespan %v != work %v", r.Makespan, r.Work)
	}
	if r.Utilization < 0.999 {
		t.Fatalf("P=1 utilization %v", r.Utilization)
	}
}

func TestBrentBound(t *testing.T) {
	c := unitCosts()
	for _, g := range []dag.Graph{
		benchmark("ge").Dataflow(6),
		benchmark("fw").Dataflow(4),
		benchmark("ge").ForkJoin(8),
		benchmark("sw").Dataflow(10),
		benchmark("sw").ForkJoin(8),
	} {
		span, err := Simulate(g, 0, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 4, 16, 64} {
			r, err := Simulate(g, p, c)
			if err != nil {
				t.Fatal(err)
			}
			lower := r.Work / float64(p)
			upper := r.Work/float64(p) + span.Makespan
			if r.Makespan < lower-1e-9 || r.Makespan > upper+1e-9 {
				t.Fatalf("Brent violated: P=%d T_P=%v not in [%v, %v]", p, r.Makespan, lower, upper)
			}
			if r.Makespan < span.Makespan-1e-9 {
				t.Fatalf("T_P=%v below span %v", r.Makespan, span.Makespan)
			}
		}
	}
}

func TestMonotoneInProcessors(t *testing.T) {
	g := benchmark("ge").ForkJoin(8)
	c := unitCosts()
	prev := math.Inf(1)
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		r, err := Simulate(g, p, c)
		if err != nil {
			t.Fatal(err)
		}
		// Greedy isn't strictly monotone in general, but on these uniform
		// task costs halving work per processor must never hurt by more
		// than a task.
		if r.Makespan > prev+1 {
			t.Fatalf("P=%d makespan %v much worse than previous %v", p, r.Makespan, prev)
		}
		prev = r.Makespan
	}
}

// The data-flow span must never exceed the fork-join span, and for SW the
// gap must grow with the number of tiles — the paper's central claim about
// artificial dependencies, stated in span terms.
func TestSpanDominance(t *testing.T) {
	c := unitCosts()
	for _, tiles := range []int{2, 4, 8, 16, 32} {
		for _, name := range []string{"ge", "fw"} {
			df, err := Simulate(benchmark(name).Dataflow(tiles), 0, c)
			if err != nil {
				t.Fatal(err)
			}
			fj, err := Simulate(benchmark(name).ForkJoin(tiles), 0, c)
			if err != nil {
				t.Fatal(err)
			}
			if df.Makespan > fj.Makespan+1e-9 {
				t.Fatalf("%s tiles=%d: dataflow span %v > forkjoin span %v",
					name, tiles, df.Makespan, fj.Makespan)
			}
		}
	}
	// SW spans: dataflow = 2T-1 (tile wavefront); forkjoin = T^lg3.
	var prevRatio float64
	for _, tiles := range []int{4, 8, 16, 32, 64} {
		df, _ := Simulate(benchmark("sw").Dataflow(tiles), 0, c)
		fj, _ := Simulate(benchmark("sw").ForkJoin(tiles), 0, c)
		if want := float64(2*tiles - 1); df.Makespan != want {
			t.Fatalf("SW dataflow span = %v, want %v", df.Makespan, want)
		}
		if want := math.Pow(float64(tiles), math.Log2(3)); math.Abs(fj.Makespan-want) > 1e-6 {
			t.Fatalf("SW forkjoin span = %v, want T^lg3 = %v", fj.Makespan, want)
		}
		ratio := fj.Makespan / df.Makespan
		if ratio <= prevRatio {
			t.Fatalf("SW span ratio not growing: tiles=%d ratio=%v prev=%v", tiles, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

// GE data-flow span in unit tasks: the critical path goes through
// A(k) -> B/C(k) -> D(k) -> A(k+1) ... = 3T - 2 tasks.
func TestGEDataflowSpanClosedForm(t *testing.T) {
	c := unitCosts()
	for _, tiles := range []int{2, 4, 8, 16} {
		r, err := Simulate(benchmark("ge").Dataflow(tiles), 0, c)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(3*tiles - 2); r.Makespan != want {
			t.Fatalf("tiles=%d: span %v, want %v", tiles, r.Makespan, want)
		}
		if r.SpanTasks != 3*tiles-2 {
			t.Fatalf("tiles=%d: SpanTasks %d, want %d", tiles, r.SpanTasks, 3*tiles-2)
		}
	}
}

// TestCholSpans pins the span claim for Cholesky: the data-flow critical
// path is the 3T−2 chain POTRF→TRSM→UPDATE per phase, while the fork-join
// schedule's per-phase barriers keep the same task-count span here (the
// right-looking batches are depth-1) — the gap shows up in width, not
// depth, which is why the simulated crossover still separates them.
func TestCholSpans(t *testing.T) {
	c := unitCosts()
	for _, tiles := range []int{2, 4, 8} {
		df, fj := benchmark("chol").Dataflow(tiles), benchmark("chol").ForkJoin(tiles)
		if err := dag.CheckAcyclic(fj); err != nil {
			t.Fatalf("tiles=%d fork-join: %v", tiles, err)
		}
		for _, g := range []dag.Graph{df, fj} {
			r, err := Simulate(g, 0, c)
			if err != nil {
				t.Fatal(err)
			}
			if want := float64(3*tiles - 2); r.Makespan != want {
				t.Fatalf("tiles=%d: span %v, want %v", tiles, r.Makespan, want)
			}
		}
		if dfTasks, fjTasks := dag.Analyze(df).Tasks, dag.Analyze(fj).Tasks; fjTasks != dfTasks {
			t.Fatalf("tiles=%d: fork-join has %d tasks, data-flow %d", tiles, fjTasks, dfTasks)
		}
	}
}

func TestStartupShiftsMakespan(t *testing.T) {
	g := benchmark("sw").Dataflow(4)
	c := unitCosts()
	base, _ := Simulate(g, 2, c)
	c.Startup = 10
	shifted, _ := Simulate(g, 2, c)
	if math.Abs(shifted.Makespan-base.Makespan-10) > 1e-9 {
		t.Fatalf("startup not added: %v vs %v", shifted.Makespan, base.Makespan)
	}
}

func TestOverheadAddsToWork(t *testing.T) {
	g := benchmark("sw").Dataflow(4)
	c := unitCosts()
	plain, _ := Simulate(g, 1, c)
	c.Overhead[dag.KindSW] = 0.5
	heavy, _ := Simulate(g, 1, c)
	if want := plain.Makespan * 1.5; math.Abs(heavy.Makespan-want) > 1e-9 {
		t.Fatalf("overhead: %v, want %v", heavy.Makespan, want)
	}
}

func TestPeakReadyReflectsParallelism(t *testing.T) {
	// SW wavefront on a T×T grid has at most T simultaneously ready tiles.
	g := benchmark("sw").Dataflow(8)
	r, err := Simulate(g, 64, unitCosts())
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakReady < 4 || r.PeakReady > 8 {
		t.Fatalf("PeakReady = %d, want within (4, 8]", r.PeakReady)
	}
}

func TestUtilizationBounds(t *testing.T) {
	g := benchmark("ge").ForkJoin(8)
	r, err := Simulate(g, 16, unitCosts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Utilization <= 0 || r.Utilization > 1+1e-9 {
		t.Fatalf("utilization %v out of range", r.Utilization)
	}
}

func TestQueueWraparound(t *testing.T) {
	q := newQueue(4)
	for round := 0; round < 10; round++ {
		for i := int32(0); i < 7; i++ {
			q.push(i)
		}
		for i := int32(0); i < 7; i++ {
			if got := q.pop(); got != i {
				t.Fatalf("round %d: pop = %d, want %d", round, got, i)
			}
		}
	}
	if q.len() != 0 {
		t.Fatalf("len = %d", q.len())
	}
}

func TestAffinityValidation(t *testing.T) {
	g := benchmark("sw").Dataflow(4)
	c := unitCosts()
	if _, err := SimulateAffinity(g, 0, c, Affinity{Sockets: 2, Home: func(int) int { return 0 }}); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := SimulateAffinity(g, 2, c, Affinity{}); err == nil {
		t.Fatal("missing Home accepted")
	}
}

// With one socket there are no migrations and the makespan matches the
// plain simulator.
func TestAffinitySingleSocketMatchesPlain(t *testing.T) {
	g := benchmark("ge").Dataflow(6)
	c := unitCosts()
	plain, err := Simulate(g, 4, c)
	if err != nil {
		t.Fatal(err)
	}
	af, err := SimulateAffinity(g, 4, c, Affinity{
		Sockets: 1, Home: func(int) int { return 0 }, MigratePenalty: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if af.Migrations != 0 {
		t.Fatalf("%d migrations on one socket", af.Migrations)
	}
	if math.Abs(af.Makespan-plain.Makespan) > 1e-9 {
		t.Fatalf("makespan %v != plain %v", af.Makespan, plain.Makespan)
	}
}

// Preferring home tasks must reduce migrations (and with a real penalty,
// the makespan) relative to FIFO dispatch.
func TestAffinityPreferHomeReducesMigrations(t *testing.T) {
	g := benchmark("ge").Dataflow(16)
	c := unitCosts()
	home := func(id int) int { return id % 4 }
	fifo, err := SimulateAffinity(g, 16, c, Affinity{
		Sockets: 4, Home: home, MigratePenalty: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	pref, err := SimulateAffinity(g, 16, c, Affinity{
		Sockets: 4, Home: home, MigratePenalty: 0.5, PreferHome: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pref.Migrations >= fifo.Migrations {
		t.Fatalf("prefer-home migrations %d >= fifo %d", pref.Migrations, fifo.Migrations)
	}
	if pref.Makespan > fifo.Makespan {
		t.Fatalf("prefer-home slower: %v vs %v", pref.Makespan, fifo.Makespan)
	}
}

// Every task still executes exactly once: the affinity dispatcher must not
// drop or duplicate work (checked via total busy time with unit costs and
// zero penalty).
func TestAffinityConservation(t *testing.T) {
	g := benchmark("sw").Dataflow(8)
	c := unitCosts()
	r, err := SimulateAffinity(g, 3, c, Affinity{
		Sockets: 3, Home: func(id int) int { return id % 3 }, PreferHome: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.BusyTime-float64(g.Len())) > 1e-9 {
		t.Fatalf("busy time %v, want %v", r.BusyTime, float64(g.Len()))
	}
}

func TestClusterValidation(t *testing.T) {
	g := benchmark("sw").Dataflow(4)
	if _, err := SimulateCluster(g, Cluster{}, unitCosts()); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

// One node with free communication must match the plain simulator.
func TestClusterSingleNodeMatchesPlain(t *testing.T) {
	g := benchmark("ge").Dataflow(6)
	c := unitCosts()
	plain, err := Simulate(g, 4, c)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := SimulateCluster(g, Cluster{
		Nodes: 1, CoresPerNode: 4, Home: func(int) int { return 0 },
		Latency: 99, TransferTime: 99,
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Messages != 0 || cl.CommTime != 0 {
		t.Fatalf("intra-node run sent %d messages", cl.Messages)
	}
	if math.Abs(cl.Makespan-plain.Makespan) > 1e-9 {
		t.Fatalf("makespan %v != plain %v", cl.Makespan, plain.Makespan)
	}
}

// With zero communication cost, more nodes never hurt; with heavy
// communication, a finely distributed wavefront slows down — the classic
// distributed-memory tradeoff.
func TestClusterCommunicationTradeoff(t *testing.T) {
	g := benchmark("sw").Dataflow(16)
	c := unitCosts()
	homeRR := func(id int) int { return id % 4 }
	freeComm, err := SimulateCluster(g, Cluster{Nodes: 4, CoresPerNode: 4, Home: homeRR}, c)
	if err != nil {
		t.Fatal(err)
	}
	oneNode, err := SimulateCluster(g, Cluster{Nodes: 1, CoresPerNode: 4, Home: func(int) int { return 0 }}, c)
	if err != nil {
		t.Fatal(err)
	}
	if freeComm.Makespan > oneNode.Makespan+1e-9 {
		t.Fatalf("free communication but distributed run slower: %v vs %v",
			freeComm.Makespan, oneNode.Makespan)
	}
	costly, err := SimulateCluster(g, Cluster{
		Nodes: 4, CoresPerNode: 4, Home: homeRR, Latency: 5, TransferTime: 5,
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if costly.Makespan <= freeComm.Makespan {
		t.Fatalf("communication cost had no effect: %v vs %v", costly.Makespan, freeComm.Makespan)
	}
	if costly.Messages == 0 || costly.CommTime == 0 {
		t.Fatalf("no communication accounted: %+v", costly)
	}
}

// Every task completes exactly once regardless of distribution.
func TestClusterConservation(t *testing.T) {
	g := benchmark("ge").Dataflow(8)
	c := unitCosts()
	r, err := SimulateCluster(g, Cluster{
		Nodes: 3, CoresPerNode: 2,
		Home:    func(id int) int { return (id * 7) % 3 },
		Latency: 0.25, TransferTime: 0.1,
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.BusyTime-float64(g.Len())) > 1e-9 {
		t.Fatalf("busy %v, want %v", r.BusyTime, float64(g.Len()))
	}
	if r.Makespan < r.Work/6 {
		t.Fatalf("makespan below work bound")
	}
}

// Property test on random layered DAGs: Brent's inequality, work/span
// consistency and conservation must hold for arbitrary graph shapes, not
// just the benchmark-derived ones.
func TestRandomDAGProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomLayeredDAG(rng)
		c := unitCosts()
		span, err := Simulate(g, 0, c)
		if err != nil {
			return false
		}
		for _, p := range []int{1, 3, 7} {
			r, err := Simulate(g, p, c)
			if err != nil {
				return false
			}
			if r.Makespan < r.Work/float64(p)-1e-9 ||
				r.Makespan > r.Work/float64(p)+span.Makespan+1e-9 ||
				r.Makespan < span.Makespan-1e-9 {
				return false
			}
			if math.Abs(r.BusyTime-r.Work) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// randomLayeredDAG builds a random DAG in CSR form via the dag builders'
// public contract: layered nodes with random forward edges.
type randomDAG struct {
	kinds []dag.Kind
	indeg []int
	succs [][]int
}

func (r *randomDAG) Len() int             { return len(r.kinds) }
func (r *randomDAG) Kind(id int) dag.Kind { return r.kinds[id] }
func (r *randomDAG) InDeg(id int) int     { return r.indeg[id] }
func (r *randomDAG) EachSucc(id int, f func(int)) {
	for _, s := range r.succs[id] {
		f(s)
	}
}

func randomLayeredDAG(rng *rand.Rand) dag.Graph {
	layers := 2 + rng.Intn(5)
	perLayer := 1 + rng.Intn(6)
	var ids [][]int
	g := &randomDAG{}
	for l := 0; l < layers; l++ {
		var layer []int
		for i := 0; i < perLayer; i++ {
			g.kinds = append(g.kinds, dag.KindD)
			g.indeg = append(g.indeg, 0)
			g.succs = append(g.succs, nil)
			layer = append(layer, len(g.kinds)-1)
		}
		ids = append(ids, layer)
	}
	for l := 0; l+1 < layers; l++ {
		for _, u := range ids[l] {
			for _, v := range ids[l+1] {
				if rng.Float64() < 0.5 {
					g.succs[u] = append(g.succs[u], v)
					g.indeg[v]++
				}
			}
		}
	}
	return g
}

// The timeline must integrate back to the utilization: mean occupancy over
// the buckets equals BusyTime / Makespan.
func TestTimelineIntegratesToUtilization(t *testing.T) {
	g := benchmark("ge").ForkJoin(8)
	r, err := SimulateTimeline(g, 8, unitCosts(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Timeline) != 50 {
		t.Fatalf("timeline has %d buckets", len(r.Timeline))
	}
	sum := 0.0
	for _, v := range r.Timeline {
		if v < -1e-9 || v > float64(r.Processors)+1e-9 {
			t.Fatalf("occupancy %v outside [0, P]", v)
		}
		sum += v
	}
	mean := sum / float64(len(r.Timeline))
	if want := r.BusyTime / r.Makespan; math.Abs(mean-want) > 0.05*want {
		t.Fatalf("mean occupancy %v, want %v", mean, want)
	}
	// The fork-join run must actually show idle phases: some bucket well
	// below the peak.
	min, max := math.Inf(1), 0.0
	for _, v := range r.Timeline {
		min, max = math.Min(min, v), math.Max(max, v)
	}
	if min > max/2 {
		t.Fatalf("no idle phases visible: min %v max %v", min, max)
	}
}

func TestTimelineDisabledByDefault(t *testing.T) {
	g := benchmark("sw").Dataflow(4)
	r, err := Simulate(g, 2, unitCosts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Timeline != nil {
		t.Fatal("Simulate should not sample a timeline")
	}
}
