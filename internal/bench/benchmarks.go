package bench

import (
	"math/rand"

	"dpflow/internal/chol"
	"dpflow/internal/dag"
	"dpflow/internal/ge"
	"dpflow/internal/gep"
	"dpflow/internal/graphgen"
	"dpflow/internal/kernels"
	"dpflow/internal/matrix"
	"dpflow/internal/seq"
	"dpflow/internal/sw"
)

func init() {
	// Gaussian Elimination without pivoting — the paper's running example
	// (§III). Each update costs a multiply and a subtract, plus an amortised
	// three-flop division per (k, i) row pair (bounded by m²).
	Register(gepEntry("ge", gep.GE, 3, func(n int, rng *rand.Rand) *matrix.Dense {
		a, _ := ge.NewSystem(n, rng)
		return a
	}))
	// Floyd-Warshall all-pairs shortest paths: every funcX kind performs the
	// same m³ relaxations (an add and a compare each) over full rows.
	Register(gepEntry("fw", gep.FW, 0, func(n int, rng *rand.Rand) *matrix.Dense {
		return graphgen.Random(graphgen.Config{N: n, Density: 0.35, MaxWeight: 9, Infinity: graphgen.Infinity}, rng)
	}))
	// Smith-Waterman local alignment — the wavefront benchmark whose fork-join
	// joins are the paper's artificial dependencies. Every base task is the
	// single KindSW tile kernel; task (I, J) awaits its west, north and
	// north-west neighbours. SW tiles stream table rows identically under both
	// execution models, so neither side earns the prefetch discount.
	Register(&entry[sw.TileTag, sw.TileKey]{
		taskGraphs: taskGraphs[sw.TileTag, sw.TileKey]{
			numbering: sw.Numbering,
			kind:      func(sw.TileKey) dag.Kind { return dag.KindSW },
			preds:     sw.Preds,
			succs:     sw.Succs,
			flow: func(tiles int) (*gep.Flow[sw.TileTag, sw.TileKey], error) {
				p := &sw.Problem{A: make([]byte, tiles), B: make([]byte, tiles)}
				return p.Flow(p.NewTable(), 1)
			},
		},
		closedForms: swForms{},
		name:        "sw",
		problem: func(n int, rng *rand.Rand) (*matrix.Dense, *matrix.Dense, func(*matrix.Dense, int) (*gep.Flow[sw.TileTag, sw.TileKey], error)) {
			a := seq.RandomDNA(n, rng)
			p := &sw.Problem{A: a, B: seq.Mutate(a, 0.2, seq.DNAAlphabet, rng), Scoring: kernels.DefaultScoring}
			return p.NewTable(), p.NewTable(), p.Flow
		},
		census: func(tiles int) (out [dag.NumKinds]int) {
			out[dag.KindSW] = tiles * tiles
			return out
		},
		deps: [dag.NumKinds]float64{dag.KindSW: 3},
	})
	// Tiled Cholesky factorisation — the fourth benchmark, onboarded entirely
	// through this registry (no layer outside internal/chol and this file knows
	// its recurrence). POTRF maps to KindA, TRSM to KindC and the trailing
	// UPDATE to KindD, so the model prices its kernels with GE's triangular
	// closed forms: POTRF is funcA-shaped (a shrinking triangular elimination
	// of the diagonal tile), TRSM funcC-shaped (a pivot-column solve) and
	// UPDATE funcD-shaped (a full m³ rank-update), each with an amortised
	// division (and square root on the diagonal) per row pair. Phase k updates
	// the (T−k)(T−k+1)/2-tile lower triangle. POTRF awaits the previous-phase
	// UPDATE of its tile, TRSM additionally the phase's POTRF, UPDATE the two
	// TRSMs (one on the diagonal) plus the previous-phase UPDATE.
	Register(&entry[chol.Tag, chol.Key]{
		taskGraphs: taskGraphs[chol.Tag, chol.Key]{
			numbering: chol.Numbering,
			kind:      func(k chol.Key) dag.Kind { return cholKinds[k.Kind] },
			preds:     chol.Preds,
			succs:     chol.Succs,
			flow: func(tiles int) (*gep.Flow[chol.Tag, chol.Key], error) {
				return chol.Flow(matrix.NewSquare(tiles), 1)
			},
		},
		closedForms: gepForms{gep.Triangular, 3},
		name:        "chol",
		problem: func(n int, rng *rand.Rand) (*matrix.Dense, *matrix.Dense, func(*matrix.Dense, int) (*gep.Flow[chol.Tag, chol.Key], error)) {
			a := chol.NewSPD(n, rng)
			return a, a.Clone(), chol.Flow
		},
		census: func(tiles int) (out [dag.NumKinds]int) {
			out[dag.KindA] = tiles
			out[dag.KindC] = tiles * (tiles - 1) / 2
			out[dag.KindD] = (tiles - 1) * tiles * (tiles + 1) / 6
			return out
		},
		deps:     [dag.NumKinds]float64{dag.KindA: 1, dag.KindC: 2, dag.KindD: 3},
		prefetch: true,
	})
}

// gepEntry is a GEP instantiation (internal/gep) as a benchmark: GE over
// the triangular update set and FW over the cube differ in name, input and
// the flops per row pair; everything shape-dependent derives from
// alg.Shape. Its task graphs have one task per (tile, elimination step),
// their edges the dependency relation — FW's write-after-read
// anti-dependencies included — and, following Listing 5, funcA awaits one
// input, funcB and funcC two, funcD four.
func gepEntry(name string, alg gep.Algorithm, rowFlops float64, input func(n int, rng *rand.Rand) *matrix.Dense) Benchmark {
	return &entry[gep.Tag, gep.ItemKey]{
		taskGraphs: taskGraphs[gep.Tag, gep.ItemKey]{
			numbering: alg.Shape.Numbering,
			kind:      func(k gep.ItemKey) dag.Kind { return gepKinds[gep.Classify(k.I, k.J, k.K)] },
			preds:     alg.Shape.Preds,
			succs:     alg.Shape.Succs,
			flow: func(tiles int) (*gep.Flow[gep.Tag, gep.ItemKey], error) {
				return alg.Flow(matrix.NewSquare(tiles), 1)
			},
		},
		closedForms: gepForms{alg.Shape, rowFlops},
		name:        name,
		problem: func(n int, rng *rand.Rand) (*matrix.Dense, *matrix.Dense, func(*matrix.Dense, int) (*gep.Flow[gep.Tag, gep.ItemKey], error)) {
			a := input(n, rng)
			return a, a.Clone(), alg.Flow
		},
		census: func(tiles int) (out [dag.NumKinds]int) {
			out[dag.KindA], out[dag.KindB], out[dag.KindC], out[dag.KindD] = gep.TaskCount(tiles, alg.Shape)
			return out
		},
		deps:     [dag.NumKinds]float64{dag.KindA: 1, dag.KindB: 2, dag.KindC: 2, dag.KindD: 4},
		prefetch: true,
	}
}

// gepKinds maps the GEP functions to the model's kinds.
var gepKinds = [...]dag.Kind{gep.FuncA: dag.KindA, gep.FuncB: dag.KindB, gep.FuncC: dag.KindC, gep.FuncD: dag.KindD}

// cholKinds maps chol's task kinds to the model's.
var cholKinds = [...]dag.Kind{chol.KindPotrf: dag.KindA, chol.KindTrsm: dag.KindC, chol.KindUpdate: dag.KindD}
