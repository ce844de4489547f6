// Package par implements the parenthesis problem — matrix-chain
// multiplication — as a fourth DP benchmark beyond the paper's three. It
// belongs to the same family of recursive divide-and-conquer DPs
// (Chowdhury & Ramachandran treat it alongside GE and FW), but its
// dependency structure is qualitatively different: cell (i, j) reads every
// (i, k) and (k+1, j) with i ≤ k < j, so a tile depends on the whole band
// of tiles between it and the diagonal, not just a constant-size
// neighbourhood. That makes it a good stress test for the CnC tuners
// (dependency lists grow linearly with the tile's off-diagonal distance)
// and a clean illustration of a fork-join schedule whose barrier per
// anti-diagonal is the natural — and only reasonable — join placement.
//
//	m[i][j] = min over i <= k < j of m[i][k] + m[k+1][j] + p[i-1]·p[k]·p[j]
//
// with 1-based matrix indices and dims p[0..n]. All weights are small
// integers, so float64 min-plus arithmetic is exact and every
// implementation agrees bit-for-bit.
package par

import (
	"fmt"
	"math"
	"math/rand"

	"dpflow/internal/determinacy"
	"dpflow/internal/gep"
	"dpflow/internal/matrix"
)

// Problem is one matrix-chain instance: Dims has length N+1; matrix i has
// shape Dims[i-1] × Dims[i].
type Problem struct {
	Dims []int
}

// N returns the chain length (number of matrices).
func (p *Problem) N() int { return len(p.Dims) - 1 }

// RandomProblem generates a chain of n matrices with dimensions in
// [1, maxDim].
func RandomProblem(n, maxDim int, rng *rand.Rand) *Problem {
	dims := make([]int, n+1)
	for i := range dims {
		dims[i] = 1 + rng.Intn(maxDim)
	}
	return &Problem{Dims: dims}
}

// NewTable allocates the (N+1)×(N+1) DP table (row/col 0 unused; the
// diagonal is zero).
func (p *Problem) NewTable() *matrix.Dense { return matrix.New(p.N()+1, p.N()+1) }

func (p *Problem) validate(base int) error {
	n := p.N()
	if n < 1 {
		return fmt.Errorf("par: need at least one matrix, got dims of length %d", len(p.Dims))
	}
	if !matrix.IsPow2(n) {
		return fmt.Errorf("par: chain length %d must be a power of two", n)
	}
	if base < 1 {
		return fmt.Errorf("par: base %d must be >= 1", base)
	}
	return nil
}

// cell computes one cell (i, j), j > i, assuming every (i, k) and (k+1, j)
// with smaller gap is final.
func (p *Problem) cell(m *matrix.Dense, i, j int) {
	best := math.Inf(1)
	row := m.Row(i)
	pij := float64(p.Dims[i-1]) * float64(p.Dims[j])
	for k := i; k < j; k++ {
		if c := row[k] + m.At(k+1, j) + pij*float64(p.Dims[k]); c < best {
			best = c
		}
	}
	m.Set(i, j, best)
}

// Serial fills the table with the classic gap-order loop and returns the
// optimal multiplication cost m[1][N].
func (p *Problem) Serial(m *matrix.Dense) float64 {
	n := p.N()
	for gap := 1; gap < n; gap++ {
		for i := 1; i+gap <= n; i++ {
			p.cell(m, i, i+gap)
		}
	}
	return m.At(1, n)
}

// TileKernel computes every cell of tile (I, J) (0-based tile coordinates
// over the 1-based cell grid, tile side bs) in ascending gap order. Cells
// outside the upper triangle are skipped. All tiles strictly between (I, J)
// and the diagonal must be final.
func (p *Problem) TileKernel(m *matrix.Dense, tI, tJ, bs int) {
	n := p.N()
	iLo, iHi := 1+tI*bs, 1+(tI+1)*bs-1
	jLo, jHi := 1+tJ*bs, 1+(tJ+1)*bs-1
	if iHi > n {
		iHi = n
	}
	if jHi > n {
		jHi = n
	}
	// Ascending gap order within the tile keeps intra-tile dependencies
	// satisfied; the maximum gap inside the tile is jHi - iLo.
	for gap := 1; gap <= jHi-iLo; gap++ {
		for i := iLo; i <= iHi; i++ {
			j := i + gap
			if j < jLo || j > jHi {
				continue
			}
			p.cell(m, i, j)
		}
	}
}

// Tile identifies one tile of the upper-triangular tile grid: a base task,
// its tag and its receipt.
type Tile struct{ I, J int }

// The recurrence is stated once, here: the schedule walk (Walk) and the
// dependency relation on tiles (Preds, Succs); Problem.Flow hands them to
// the shared interpreters.

// Walk visits the tiles of a tiles×tiles grid in gap order; last marks the
// final tile of a stage. A stage is one anti-diagonal: its tiles are
// independent, and a barrier between diagonals is the natural join
// placement for this DP (any coarser nesting serialises more). The walk has
// this one level: there are no recursive calls.
func Walk(tiles int, visit func(t Tile, last bool)) {
	for gap := 0; gap < tiles; gap++ {
		for i := 0; i+gap < tiles; i++ {
			visit(Tile{i, i + gap}, i+gap == tiles-1)
		}
	}
}

// Preds visits the tiles that tile t reads, until f returns false: all of
// (I, K) and (K, J) with I ≤ K ≤ J — the whole band between it and the
// diagonal. Unlike SW's constant-degree wavefront, the list grows with the
// tile's distance from the diagonal.
func Preds(_ int, t Tile, f func(Tile) bool) bool {
	for k := t.I; k <= t.J; k++ {
		if k < t.J && !f(Tile{t.I, k}) || k > t.I && !f(Tile{k, t.J}) {
			return false
		}
	}
	return true
}

// Succs is the inverse of Preds on a tiles×tiles grid: the rest of row I to
// the right of t and the rest of column J above it. Their number — the
// get-count of t's receipt — is I + tiles−1−J, largest on the diagonal.
func Succs(tiles int, t Tile, f func(Tile) bool) bool {
	for j := t.J + 1; j < tiles; j++ {
		if !f(Tile{t.I, j}) {
			return false
		}
	}
	for i := t.I - 1; i >= 0; i-- {
		if !f(Tile{i, t.J}) {
			return false
		}
	}
	return true
}

// Flow states the recurrence on table m for the shared interpreters
// (gep.Flow). Every tag is a base tile and its own key; the walk has one
// level, so the flow is Flat and every interpreter instantiates the tiles
// diagonal by diagonal. Under data-flow a tile fires as soon as the tiles it
// reads are done, which exercises the tuners' countdown machinery at high
// fan-in and the get-count collector at non-constant counts. The optimal
// cost is m[1][N] of the filled table.
func (p *Problem) Flow(m *matrix.Dense, base int) (*gep.Flow[Tile, Tile], error) {
	if err := p.validate(base); err != nil {
		return nil, err
	}
	bs := gep.BaseSize(p.N(), base)
	tiles := p.N() / bs
	return &gep.Flow[Tile, Tile]{
		Colls: [][3]string{{"parTile", "tile_tags", "tile_outputs"}},
		Task:  func(t Tile) (Tile, bool) { return t, true },
		Walk:  func(_ Tile, _ bool, visit func(Tile, bool)) { Walk(tiles, visit) },
		Preds: func(k Tile, f func(Tile) bool) bool { return Preds(tiles, k, f) },
		Succs: func(k Tile, f func(Tile) bool) bool { return Succs(tiles, k, f) },
		Kernel: func(k Tile, fr *determinacy.Frame) error {
			if fr != nil {
				// A tile writes itself and reads its whole band.
				fr.Write(determinacy.TileCell(k.I, k.J))
				Preds(tiles, k, func(r Tile) bool { fr.Read(determinacy.TileCell(r.I, r.J)); return true })
			}
			p.TileKernel(m, k.I, k.J, bs)
			return nil
		},
		Flat:      true,
		TileBytes: bs * bs * 8,
	}, nil
}
