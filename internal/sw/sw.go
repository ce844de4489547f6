// Package sw implements the paper's second benchmark: Smith-Waterman local
// alignment. The DP table has the classic wavefront dependency structure —
// cell (i, j) depends on (i−1, j), (i, j−1) and (i−1, j−1) — so at tile
// granularity the data-flow program exposes Θ(n/b) anti-diagonal
// parallelism, while the fork-join recursion
//
//	R(X) = R(X00); R(X01) ∥ R(X10); R(X11)
//
// inserts a join between the anti-diagonals of different recursion levels.
// That join is the artificial dependency the paper highlights: it blocks
// wavefront pipelining (tile (2,0) cannot start when (1,0) finishes — it
// must wait for the whole X00∥X10-subtree barrier), which is why SW is the
// benchmark where data-flow beats fork-join at every problem size.
package sw

import (
	"fmt"

	"dpflow/internal/determinacy"
	"dpflow/internal/gep"
	"dpflow/internal/kernels"
	"dpflow/internal/matrix"
)

// Problem bundles one SW instance: two sequences of equal power-of-two
// length and a scoring scheme. The DP table is (N+1)×(N+1) with the zero
// row/column boundary.
type Problem struct {
	A, B    []byte
	Scoring kernels.Scoring
}

// N returns the sequence length.
func (p *Problem) N() int { return len(p.A) }

// NewTable allocates the (N+1)×(N+1) DP table.
func (p *Problem) NewTable() *matrix.Dense { return matrix.New(p.N()+1, p.N()+1) }

func (p *Problem) validate(h *matrix.Dense, base int) error {
	n := p.N()
	if len(p.B) != n {
		return fmt.Errorf("sw: sequences must have equal length, got %d and %d", n, len(p.B))
	}
	if !matrix.IsPow2(n) {
		return fmt.Errorf("sw: length %d must be a power of two", n)
	}
	if h.Rows() != n+1 || h.Cols() != n+1 {
		return fmt.Errorf("sw: table must be %dx%d, got %dx%d", n+1, n+1, h.Rows(), h.Cols())
	}
	if base < 1 {
		return fmt.Errorf("sw: base %d must be >= 1", base)
	}
	return nil
}

// Serial fills the table with the straightforward loop and returns the
// maximum local-alignment score.
func (p *Problem) Serial(h *matrix.Dense) float64 {
	return kernels.SWSerial(h, p.A, p.B, p.Scoring)
}

// Linear computes the score in O(n) space (the paper's space optimisation).
func (p *Problem) Linear() float64 { return kernels.SWLinear(p.A, p.B, p.Scoring) }

// The recurrence is stated once, here: the schedule walk (Walk) and the
// dependency relation on base tiles (Preds, Succs). Problem.Flow hands them
// to the shared interpreters, and internal/dag's two SW graphs read them.

// Walk visits the r×r sub-blocks of call t by anti-diagonal; last marks the
// final call of a stage. The blocks of a diagonal are independent and
// successive diagonals are stages, so r = 2 is R(X00); R(X01) ∥ R(X10);
// R(X11) and r = tiles the flat tiled wavefront.
func Walk(t TileTag, r int, visit func(sub TileTag, last bool)) {
	for d := 0; d <= 2*r-2; d++ {
		for i, hi := max(0, d-r+1), min(d, r-1); i <= hi; i++ {
			visit(TileTag{r*t.I + i, r*t.J + d - i, t.S / r}, i == hi)
		}
	}
}

// Preds visits the tiles that tile t must wait for — its north, west and
// north-west neighbours, whose boundary row, column and corner its kernel
// reads — until f returns false.
func Preds(_ int, t TileKey, f func(TileKey) bool) bool {
	return (t.I == 0 || f(TileKey{t.I - 1, t.J})) &&
		(t.J == 0 || f(TileKey{t.I, t.J - 1})) &&
		(t.I == 0 || t.J == 0 || f(TileKey{t.I - 1, t.J - 1}))
}

// Succs is the inverse of Preds on a tiles×tiles grid: the south, east and
// south-east neighbours. Their number is the get-count of t's receipt —
// three in the interior, one on the last row and column, none at the corner.
func Succs(tiles int, t TileKey, f func(TileKey) bool) bool {
	s, e := t.I+1 < tiles, t.J+1 < tiles
	return (!s || f(TileKey{t.I + 1, t.J})) &&
		(!e || f(TileKey{t.I, t.J + 1})) &&
		(!s || !e || f(TileKey{t.I + 1, t.J + 1}))
}

// Numbering numbers the tiles×tiles grid row by row.
func Numbering(tiles int) gep.Numbering[TileKey] {
	return gep.Numbering[TileKey]{
		N:   tiles * tiles,
		ID:  func(k TileKey) int { return k.I*tiles + k.J },
		Key: func(id int) TileKey { return TileKey{I: id / tiles, J: id % tiles} },
	}
}

// TileTag identifies a recursive block (I, J) of size S (in units of S), as
// in the GEP tags but without a K dimension — SW has a single pass.
type TileTag struct {
	I, J int
	S    int
}

// TileKey identifies a completed base tile in the item collection.
type TileKey struct {
	I, J int
}

// Flow states the recurrence on table h for the shared interpreters
// (gep.Flow): tags are calls of the 2-way walk, a call of base-tile side is
// a base tile. Under data-flow a tile fires as soon as its west, north and
// north-west neighbours are done — the wavefront the fork-join version
// cannot express. The score is kernels.MaxScore of the filled table.
func (p *Problem) Flow(h *matrix.Dense, base int) (*gep.Flow[TileTag, TileKey], error) {
	if err := p.validate(h, base); err != nil {
		return nil, err
	}
	bs := gep.BaseSize(p.N(), base)
	tiles := p.N() / bs
	return &gep.Flow[TileTag, TileKey]{
		Numbering: Numbering(tiles),
		Colls:     [][3]string{{"swTile", "tile_tags", "tile_outputs"}},
		Task:      func(t TileTag) (TileKey, bool) { return TileKey{t.I, t.J}, t.S == bs },
		Walk: func(t TileTag, flat bool, visit func(TileTag, bool)) {
			r := 2
			if flat {
				r = t.S / bs
			}
			Walk(t, r, visit)
		},
		Preds: func(k TileKey, f func(TileKey) bool) bool { return Preds(tiles, k, f) },
		Succs: func(k TileKey, f func(TileKey) bool) bool { return Succs(tiles, k, f) },
		Kernel: func(k TileKey, fr *determinacy.Frame) error {
			if fr != nil {
				// The kernel writes its tile and reads the boundary row,
				// column and corner of its predecessors out of the table.
				fr.Write(determinacy.TileCell(k.I, k.J))
				Preds(tiles, k, func(n TileKey) bool { fr.Read(determinacy.TileCell(n.I, n.J)); return true })
			}
			kernels.SW(h, p.A, p.B, p.Scoring, 1+k.I*bs, 1+k.J*bs, bs)
			return nil
		},
		Root:      TileTag{S: p.N()},
		TileBytes: bs * bs * 8,
	}, nil
}
