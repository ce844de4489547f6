package bench

import (
	"math/rand"

	"dpflow/internal/cnc"
	"dpflow/internal/dag"
	"dpflow/internal/ge"
	"dpflow/internal/gep"
	"dpflow/internal/graphgen"
	"dpflow/internal/matrix"
)

func init() {
	// Gaussian Elimination without pivoting — the paper's running example
	// (§III). Each update costs a multiply and a subtract, plus an amortised
	// three-flop division per (k, i) row pair (bounded by m²); the miss bound
	// follows the triangular kernels' shrinking rows and segments.
	Register(gepBench{
		name:       "ge",
		alg:        gep.GE,
		taskGraphs: gepGraphs(gep.GE),
		input: func(n int, rng *rand.Rand) *matrix.Dense {
			a, _ := ge.NewSystem(n, rng)
			return a
		},
		rowFlops: 3,
		missGeom: triangularGeom,
	})
	// Floyd-Warshall all-pairs shortest paths: every funcX kind performs the
	// same m³ relaxations (an add and a compare each) over full rows.
	Register(gepBench{
		name:       "fw",
		alg:        gep.FW,
		taskGraphs: gepGraphs(gep.FW),
		input: func(n int, rng *rand.Rand) *matrix.Dense {
			return graphgen.Random(graphgen.Config{N: n, Density: 0.35, MaxWeight: 9, Infinity: graphgen.Infinity}, rng)
		},
		missGeom: func(_ dag.Kind, m int) func(int) (int, int) {
			return func(int) (int, int) { return m, m }
		},
	})
}

// gepBench is a GEP instantiation (internal/gep) as a benchmark: GE over
// the triangular update set and FW over the cube are the same value with
// different fields. Everything shape-dependent — DAGs, censuses, update
// counts — derives from alg.Shape; the fields carry what does not.
type gepBench struct {
	taskGraphs[gep.Tag, gep.ItemKey]
	name  string
	alg   gep.Algorithm
	input func(n int, rng *rand.Rand) *matrix.Dense
	// rowFlops is the flop count per row pair (m² of them per task) beyond
	// the two per update.
	rowFlops float64
	// missGeom is the (rows, segment-length) geometry MaxMissBound sums over.
	missGeom func(kind dag.Kind, m int) func(k int) (rows, segLen int)
}

func (b gepBench) Name() string { return b.name }

func (b gepBench) NewInstance(n, base int, seed int64) (Instance, error) {
	work := b.input(n, rand.New(rand.NewSource(seed)))
	return newInstance(b.name, work, work.Clone(), func(x *matrix.Dense) (*gep.Flow[gep.Tag, gep.ItemKey], error) {
		return b.alg.Flow(x, base)
	})
}

// gepGraphs states alg's task graphs: one task per (tile, elimination
// step), its edges the dependency relation — FW's write-after-read
// anti-dependencies included.
func gepGraphs(alg gep.Algorithm) taskGraphs[gep.Tag, gep.ItemKey] {
	return taskGraphs[gep.Tag, gep.ItemKey]{
		numbering: alg.Shape.Numbering,
		kind:      func(k gep.ItemKey) dag.Kind { return gepKinds[gep.Classify(k.I, k.J, k.K)] },
		preds:     alg.Shape.Preds,
		succs:     alg.Shape.Succs,
		flow: func(tiles int) (*gep.Flow[gep.Tag, gep.ItemKey], error) {
			return alg.Flow(matrix.NewSquare(tiles), 1)
		},
	}
}

// gepKinds maps the GEP functions to the model's kinds.
var gepKinds = [...]dag.Kind{gep.FuncA: dag.KindA, gep.FuncB: dag.KindB, gep.FuncC: dag.KindC, gep.FuncD: dag.KindD}

func (b gepBench) TotalTasks(tiles int) int { return TotalTasksGEP(tiles, b.alg.Shape) }

func (b gepBench) KindCounts(tiles int) [dag.NumKinds]int {
	var out [dag.NumKinds]int
	out[dag.KindA], out[dag.KindB], out[dag.KindC], out[dag.KindD] = gep.TaskCount(tiles, b.alg.Shape)
	return out
}

func (b gepBench) Flops(kind dag.Kind, m int) float64 {
	return 2*float64(Updates(kind, m, b.alg.Shape)) + b.rowFlops*float64(m*m)
}

func (b gepBench) MaxMissBound(kind dag.Kind, m, lineBytes int) float64 {
	return missBoundLoop(m, lineBytes, b.missGeom(kind, m))
}

func (b gepBench) StreamLines(kind dag.Kind, m, lineBytes int) float64 {
	return streamLinesOf(float64(Updates(kind, m, b.alg.Shape)), m, lineBytes)
}

// DepCount follows internal/gep's deps (Listing 5): funcA awaits one input,
// funcB/funcC two, funcD four — for both shapes.
func (gepBench) DepCount(kind dag.Kind) float64 {
	switch kind {
	case dag.KindA:
		return 1
	case dag.KindB, dag.KindC:
		return 2
	case dag.KindD:
		return 4
	default:
		return 0
	}
}

func (gepBench) PrefetchFriendly() bool { return true }

func (b gepBench) SpecGraph() *cnc.Graph { return b.spec(b.name) }

// Wire is the shared GE/FW vocabulary: the four funcX tag collections
// exchange gep.Tag and the four funcX_outputs item collections exchange
// gep.ItemKey -> bool, exactly as built by gep's dataflow graph. The samples
// span the zero value, a zero-size tile (S == 0), a recursive
// (larger-than-base) tag and the max-coordinate corner of a tiles×tiles
// problem.
func (gepBench) Wire(tiles int) WireVocab {
	m := tiles - 1
	if m < 0 {
		m = 0
	}
	w := WireVocab{
		Tags: []any{
			gep.Tag{},                           // zero value
			gep.Tag{I: 0, J: 0, K: 0, S: 0},     // zero-size tile
			gep.Tag{I: m, J: m, K: m, S: 1},     // max-coordinate base tag
			gep.Tag{I: 0, J: 0, K: 0, S: tiles}, // recursive root tag
		},
	}
	for _, f := range []gep.Func{gep.FuncA, gep.FuncB, gep.FuncC, gep.FuncD} {
		coll := f.String() + "_outputs"
		w.Items = append(w.Items,
			WireItem{Coll: coll, Key: gep.ItemKey{}, Val: false},
			WireItem{Coll: coll, Key: gep.ItemKey{I: m, J: m, K: m}, Val: true},
		)
	}
	return w
}
