package bench

import (
	"math/rand"

	"dpflow/internal/chol"
	"dpflow/internal/cnc"
	"dpflow/internal/dag"
	"dpflow/internal/gep"
	"dpflow/internal/matrix"
)

func init() {
	Register(chBench{taskGraphs[chol.Tag, chol.Key]{
		numbering: chol.Numbering,
		kind:      func(k chol.Key) dag.Kind { return cholKinds[k.Kind] },
		preds:     chol.Preds,
		succs:     chol.Succs,
		flow: func(tiles int) (*gep.Flow[chol.Tag, chol.Key], error) {
			return chol.Flow(matrix.NewSquare(tiles), 1)
		},
	}})
}

// chBench is tiled Cholesky factorisation — the fourth benchmark, onboarded
// entirely through this registry (no layer outside internal/chol and this
// file knows its recurrence). POTRF maps to KindA, TRSM to KindC and the
// trailing UPDATE to KindD, so the model prices its kernels with the
// GE-family triangular closed forms: POTRF is funcA-shaped (a shrinking
// triangular elimination of the diagonal tile), TRSM funcC-shaped (a
// pivot-column solve) and UPDATE funcD-shaped (a full m³ rank-update).
type chBench struct {
	taskGraphs[chol.Tag, chol.Key]
}

// cholKinds maps chol's task kinds to the model's.
var cholKinds = [...]dag.Kind{chol.KindPotrf: dag.KindA, chol.KindTrsm: dag.KindC, chol.KindUpdate: dag.KindD}

func (chBench) Name() string { return "chol" }

func (chBench) NewInstance(n, base int, seed int64) (Instance, error) {
	rng := rand.New(rand.NewSource(seed))
	a := chol.NewSPD(n, rng)
	return newInstance("chol", a, a.Clone(), func(x *matrix.Dense) (*gep.Flow[chol.Tag, chol.Key], error) {
		return chol.Flow(x, base)
	})
}

// TotalTasks is the tetrahedral number T(T+1)(T+2)/6: phase k updates the
// (T−k)(T−k+1)/2-tile lower triangle.
func (chBench) TotalTasks(tiles int) int { return tiles * (tiles + 1) * (tiles + 2) / 6 }

func (chBench) KindCounts(tiles int) [dag.NumKinds]int {
	var out [dag.NumKinds]int
	out[dag.KindA] = tiles
	out[dag.KindC] = tiles * (tiles - 1) / 2
	out[dag.KindD] = (tiles - 1) * tiles * (tiles + 1) / 6
	return out
}

// Flops uses the GE triangular forms: POTRF/TRSM/UPDATE perform the same
// multiply-subtract updates plus an amortised division (and square root on
// the diagonal) per row pair.
func (chBench) Flops(kind dag.Kind, m int) float64 {
	u := Updates(kind, m, gep.Triangular)
	divRows := float64(m * m)
	return 2*float64(u) + 3*divRows
}

func (chBench) MaxMissBound(kind dag.Kind, m, lineBytes int) float64 {
	return missBoundLoop(m, lineBytes, triangularGeom(kind, m))
}

func (chBench) StreamLines(kind dag.Kind, m, lineBytes int) float64 {
	return streamLinesOf(float64(Updates(kind, m, gep.Triangular)), m, lineBytes)
}

// DepCount follows internal/chol's deps: POTRF awaits the previous-phase
// UPDATE of its tile, TRSM additionally the phase's POTRF, UPDATE the two
// TRSMs (one on the diagonal) plus the previous-phase UPDATE.
func (chBench) DepCount(kind dag.Kind) float64 {
	switch kind {
	case dag.KindA:
		return 1
	case dag.KindC:
		return 2
	case dag.KindD:
		return 3
	default:
		return 0
	}
}

func (chBench) PrefetchFriendly() bool { return true }

func (b chBench) SpecGraph() *cnc.Graph { return b.spec("chol") }

// Wire enumerates Cholesky's vocabulary: the tasks tag collection exchanges
// chol.Tag and tile_outputs exchanges chol.Key -> bool, over the three task
// kinds (POTRF/TRSM/UPDATE). chol tags carry no size field, so the edge
// cases are the zero value and the max-coordinate corner per kind.
func (chBench) Wire(tiles int) WireVocab {
	m := tiles - 1
	if m < 0 {
		m = 0
	}
	w := WireVocab{Tags: []any{chol.Tag{}}}
	for kind := chol.KindPotrf; kind <= chol.KindUpdate; kind++ {
		w.Tags = append(w.Tags, chol.Tag{Kind: kind, I: m, J: m, K: m})
		w.Items = append(w.Items,
			WireItem{Coll: "tile_outputs", Key: chol.Key{Kind: kind}, Val: false},
			WireItem{Coll: "tile_outputs", Key: chol.Key{Kind: kind, I: m, J: m, K: m}, Val: true},
		)
	}
	return w
}
