package bench

import (
	"math/rand"

	"dpflow/internal/cnc"
	"dpflow/internal/dag"
	"dpflow/internal/gep"
	"dpflow/internal/kernels"
	"dpflow/internal/matrix"
	"dpflow/internal/seq"
	"dpflow/internal/sw"
)

func init() {
	Register(swBench{taskGraphs[sw.TileTag, sw.TileKey]{
		numbering: sw.Numbering,
		kind:      func(sw.TileKey) dag.Kind { return dag.KindSW },
		preds:     sw.Preds,
		succs:     sw.Succs,
		flow: func(tiles int) (*gep.Flow[sw.TileTag, sw.TileKey], error) {
			p := &sw.Problem{A: make([]byte, tiles), B: make([]byte, tiles)}
			return p.Flow(p.NewTable(), 1)
		},
	}})
}

// swBench is Smith-Waterman local alignment — the wavefront benchmark whose
// fork-join joins are the paper's artificial dependencies. Every base task
// is the single KindSW tile kernel; task (I, J) depends on its west, north
// and north-west neighbours.
type swBench struct {
	taskGraphs[sw.TileTag, sw.TileKey]
}

func (swBench) Name() string { return "sw" }

func (swBench) NewInstance(n, base int, seed int64) (Instance, error) {
	rng := rand.New(rand.NewSource(seed))
	a := seq.RandomDNA(n, rng)
	p := &sw.Problem{A: a, B: seq.Mutate(a, 0.2, seq.DNAAlphabet, rng), Scoring: kernels.DefaultScoring}
	return newInstance("sw", p.NewTable(), p.NewTable(), func(h *matrix.Dense) (*gep.Flow[sw.TileTag, sw.TileKey], error) {
		return p.Flow(h, base)
	})
}

func (swBench) TotalTasks(tiles int) int { return tiles * tiles }

func (swBench) KindCounts(tiles int) [dag.NumKinds]int {
	var out [dag.NumKinds]int
	out[dag.KindSW] = tiles * tiles
	return out
}

// Flops: an SW cell costs about eight operations (three candidate scores,
// a max chain and the zero clamp).
func (swBench) Flops(kind dag.Kind, m int) float64 { return 8 * float64(m*m) }

// MaxMissBound: per row, three row segments (above, above-left, own) plus
// the two sequence elements.
func (swBench) MaxMissBound(kind dag.Kind, m, lineBytes int) float64 {
	return float64(m) * (3*segLines(m, lineBytes) + 2)
}

func (swBench) StreamLines(kind dag.Kind, m, lineBytes int) float64 {
	return streamLinesOf(float64(3*m*m), m, lineBytes)
}

// DepCount: three awaited neighbours (west, north, north-west).
func (swBench) DepCount(kind dag.Kind) float64 {
	if kind == dag.KindSW {
		return 3
	}
	return 0
}

// PrefetchFriendly is false: SW tiles stream table rows identically under
// both execution models, so neither side earns the prefetch discount.
func (swBench) PrefetchFriendly() bool { return false }

func (b swBench) SpecGraph() *cnc.Graph { return b.spec("sw") }

// Wire enumerates SW's single-pass vocabulary: tile_tags exchanges
// sw.TileTag (no K dimension) and tile_outputs exchanges sw.TileKey -> bool.
func (swBench) Wire(tiles int) WireVocab {
	m := tiles - 1
	if m < 0 {
		m = 0
	}
	return WireVocab{
		Tags: []any{
			sw.TileTag{},                     // zero value
			sw.TileTag{I: 0, J: 0, S: 0},     // zero-size tile
			sw.TileTag{I: m, J: m, S: 1},     // max-coordinate base tag
			sw.TileTag{I: 0, J: 0, S: tiles}, // recursive root tag
		},
		Items: []WireItem{
			{Coll: "tile_outputs", Key: sw.TileKey{}, Val: false},
			{Coll: "tile_outputs", Key: sw.TileKey{I: m, J: m}, Val: true},
		},
	}
}
