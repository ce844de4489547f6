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
	"context"
	"fmt"
	"math"
	"math/rand"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/forkjoin"
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

// RDPSerial computes the table tile by tile in gap order — the serial
// reference for the parallel schedules. base chooses the tile side
// (rounded to the recursion's effective size like the other benchmarks).
func (p *Problem) RDPSerial(m *matrix.Dense, base int) (float64, error) {
	if err := p.validate(base); err != nil {
		return 0, err
	}
	bs := gep.BaseSize(p.N(), base)
	tiles := p.N() / bs
	for gap := 0; gap < tiles; gap++ {
		for i := 0; i+gap < tiles; i++ {
			p.TileKernel(m, i, i+gap, bs)
		}
	}
	return m.At(1, p.N()), nil
}

// ForkJoin runs the fork-join schedule: tiles of each anti-diagonal in
// parallel, a taskwait barrier between diagonals — the natural join
// placement for this DP (any coarser nesting serialises more).
func (p *Problem) ForkJoin(m *matrix.Dense, base int, pool *forkjoin.Pool) (float64, error) {
	return p.ForkJoinContext(context.Background(), m, base, pool)
}

// ForkJoinContext is ForkJoin with cooperative cancellation: a cancelled
// ctx abandons the remaining anti-diagonals and returns ctx.Err().
func (p *Problem) ForkJoinContext(ctx context.Context, m *matrix.Dense, base int, pool *forkjoin.Pool) (float64, error) {
	if err := p.validate(base); err != nil {
		return 0, err
	}
	bs := gep.BaseSize(p.N(), base)
	tiles := p.N() / bs
	if err := pool.RunContext(ctx, func(c *forkjoin.Ctx) {
		var g forkjoin.Group
		for gap := 0; gap < tiles; gap++ {
			for i := 0; i+gap < tiles; i++ {
				ti, tj := i, i+gap
				c.Spawn(&g, func(*forkjoin.Ctx) { p.TileKernel(m, ti, tj, bs) })
			}
			c.Wait(&g)
		}
	}); err != nil {
		return 0, err
	}
	return m.At(1, p.N()), nil
}

// Tile identifies one tile of the upper-triangular tile grid.
type Tile struct{ I, J int }

// RunCnC runs the data-flow schedule: every tile fires as soon as the
// tiles it reads — all of (I, K) and (K, J) with I ≤ K ≤ J, gap smaller —
// are done. Unlike SW's constant-degree wavefront, the dependency list
// grows with the tile's distance from the diagonal, which exercises the
// tuners' countdown machinery at high fan-in.
func (p *Problem) RunCnC(m *matrix.Dense, base, workers int, variant core.Variant) (float64, gep.CnCStats, error) {
	return p.RunCnCContext(context.Background(), m, base, workers, variant, nil)
}

// RunCnCContext is RunCnC with cooperative cancellation; tune, when
// non-nil, receives the built graph before the run starts (the chaos
// harness's injection hook).
func (p *Problem) RunCnCContext(ctx context.Context, m *matrix.Dense, base, workers int, variant core.Variant, tune func(*cnc.Graph)) (float64, gep.CnCStats, error) {
	if err := p.validate(base); err != nil {
		return 0, gep.CnCStats{}, err
	}
	bs := gep.BaseSize(p.N(), base)
	tiles := p.N() / bs

	g := cnc.NewGraph("par-"+variant.String(), workers)
	out := cnc.NewItemCollection[Tile, bool](g, "tile_outputs")
	tags := cnc.NewTagCollection[Tile](g, "tile_tags", false)

	await := func(k Tile) bool {
		if variant == core.NonBlockingCnC {
			_, ok := out.TryGet(k)
			return ok
		}
		out.Get(k)
		return true
	}
	step := cnc.NewStepCollection(g, "parTile", func(t Tile) error {
		for k := t.I; k <= t.J; k++ {
			if k < t.J && !await(Tile{t.I, k}) || k > t.I && !await(Tile{k, t.J}) {
				tags.Put(t)
				return nil
			}
		}
		p.TileKernel(m, t.I, t.J, bs)
		out.Put(Tile{t.I, t.J}, true)
		return nil
	})
	step.Consumes(out).Produces(out)

	// Append form: the runtime hands in a pooled scratch buffer, so
	// declaring an instance's dependencies allocates nothing.
	deps := func(t Tile, ds []cnc.Dep) []cnc.Dep {
		for k := t.I; k <= t.J; k++ {
			if k < t.J {
				ds = append(ds, out.Key(Tile{t.I, k}))
			}
			if k > t.I {
				ds = append(ds, out.Key(Tile{k, t.J}))
			}
		}
		return ds
	}
	switch variant {
	case core.TunerCnC:
		step.WithDepsAppend(cnc.TunedPrescheduled, deps)
	case core.ManualCnC:
		step.WithDepsAppend(cnc.TunedTriggered, deps)
	}
	tags.Prescribe(step)
	if tune != nil {
		tune(g)
	}

	err := g.RunContext(ctx, func() {
		// One burst per anti-diagonal: each diagonal's tags reach the queue
		// in a single batched push and wakeup pass.
		for gap := 0; gap < tiles; gap++ {
			bu := g.NewBurst()
			for i := 0; i+gap < tiles; i++ {
				tags.PutInto(Tile{i, i + gap}, bu)
			}
			bu.Flush()
		}
	})
	stats := gep.CnCStats{Stats: g.Stats(), BaseTasks: out.Len()}
	if err != nil {
		return 0, stats, err
	}
	return m.At(1, p.N()), stats, nil
}
