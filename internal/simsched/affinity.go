package simsched

import (
	"fmt"

	"dpflow/internal/dag"
)

// Affinity models NUMA placement: processors are grouped into sockets, a
// Home function assigns every task a home socket (e.g. the socket that
// touched its tile last), and executing a task away from home pays a
// migration penalty (the tile's working set crossing the interconnect).
// With PreferHome the dispatcher scans the ready pool for a home-socket
// task before settling for a migrated one — the scheduling policy the
// paper's §IV-B projects for the compute_on tuner.
type Affinity struct {
	Sockets        int
	Home           func(id int) int
	MigratePenalty float64
	PreferHome     bool
}

// scanLimit bounds the ready-pool scan of one PreferHome dispatch.
const scanLimit = 256

// AffinityResult extends Result with migration accounting.
type AffinityResult struct {
	Result
	Migrations int // tasks executed away from their home socket
}

// SimulateAffinity runs the greedy simulation with socket-aware dispatch.
// Processor p belongs to socket p % Sockets (round-robin interleave, so
// every socket has free capacity at every pool size).
func SimulateAffinity(g dag.Graph, p int, c Costs, af Affinity) (AffinityResult, error) {
	if p <= 0 {
		return AffinityResult{}, fmt.Errorf("simsched: affinity simulation needs p > 0")
	}
	if af.Sockets < 1 || af.Home == nil {
		return AffinityResult{}, fmt.Errorf("simsched: affinity needs Sockets >= 1 and a Home function")
	}
	return simulateBounded(g, p, c, 0, &af)
}
