package simsched_test

import (
	"fmt"

	"dpflow/internal/bench"
	"dpflow/internal/dag"
	"dpflow/internal/simsched"
)

// Simulating with unbounded processors yields the span; the ratio of work
// to span is the parallelism the execution model exposes. The fork-join
// joins cost Smith-Waterman most of its wavefront parallelism.
func ExampleSimulate() {
	var unit simsched.Costs
	for k := 0; k < dag.NumKinds; k++ {
		if dag.Kind(k) != dag.KindJoin {
			unit.Exec[k] = 1
		}
	}
	const tiles = 16
	sw, _ := bench.ByName("sw")
	df, _ := simsched.Simulate(sw.Dataflow(tiles), 0, unit)
	fj, _ := simsched.Simulate(sw.ForkJoin(tiles), 0, unit)
	fmt.Printf("data-flow: span %.0f, parallelism %.1f\n", df.Makespan, df.Work/df.Makespan)
	fmt.Printf("fork-join: span %.0f, parallelism %.1f\n", fj.Makespan, fj.Work/fj.Makespan)
	// Output:
	// data-flow: span 31, parallelism 8.3
	// fork-join: span 81, parallelism 3.2
}

// The GE data-flow span is the A→B/C→D chain: 3T−2 tasks.
func ExampleSimulate_span() {
	var unit simsched.Costs
	for k := 0; k < dag.NumKinds; k++ {
		if dag.Kind(k) != dag.KindJoin {
			unit.Exec[k] = 1
		}
	}
	ge, _ := bench.ByName("ge")
	r, _ := simsched.Simulate(ge.Dataflow(8), 0, unit)
	fmt.Println(r.SpanTasks)
	// Output: 22
}
