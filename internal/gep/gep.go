// Package gep implements the 2-way recursive divide-and-conquer structure of
// the Gaussian Elimination Paradigm (Chowdhury & Ramachandran) that the GE
// and FW-APSP benchmarks instantiate — the four mutually recursive functions
// A, B, C, D of the paper's Figure 2.
//
// All functions share the coordinate convention (i0, j0, k0, s): apply
// elimination steps k ∈ [k0, k0+s) to the block rows [i0, i0+s) × columns
// [j0, j0+s). A has i0 == j0 == k0; B has i0 == k0; C has j0 == k0; D is
// disjoint from the step-K rows and columns.
//
// Two update-set shapes are supported:
//
//   - Triangular (GE): only i > k ∧ j > k cells update, so each phase K
//     touches the lower-right sub-grid and the recursion is
//     A(X00); B(X01)∥C(X10); D(X11); A(X11).
//   - Cube (FW): every (i, j) updates at every k, so the second half of
//     each phase also updates the tiles above and left of the diagonal:
//     A(X00); B(X01)∥C(X10); D(X11); A(X11); B(X10)∥C(X01); D(X00).
//
// The recursion and the tile dependencies are stated once (recurrence.go),
// split r ways with r = 2 the paper's; every execution the paper compares
// interprets that statement: serial, fork-join (Listing 3) on the forkjoin
// pool, and the CnC data-flow program (Listings 4–5) in its Native, Tuner,
// Manual and non-blocking-get variants (flow.go, shared with the other
// benchmarks). The kernel — the base-case tile update — is a parameter, so
// GE (subtract outer product / pivot) and FW (min-plus) reuse the identical
// machinery.
package gep

import (
	"context"
	"fmt"

	"dpflow/internal/determinacy"
	"dpflow/internal/forkjoin"
	"dpflow/internal/kernels"
	"dpflow/internal/matrix"
)

// Kernel applies a base-case update: elimination steps [k0, k0+b) to block
// rows [i0, i0+b) × cols [j0, j0+b) of x.
type Kernel func(x *matrix.Dense, i0, j0, k0, b int)

// Shape selects the update set of the recursion.
type Shape int

const (
	// Triangular is GE's update set {(i, j, k): i > k, j > k}.
	Triangular Shape = iota
	// Cube is FW's full update set: all (i, j) at every k.
	Cube
)

// Algorithm couples a base-case kernel with the update-set shape; it is the
// unit the drivers execute.
type Algorithm struct {
	Kernel Kernel
	Shape  Shape
}

// The paper's two GEP benchmarks. GE is Gaussian Elimination without
// pivoting, the running example of §III: the elimination kernel over the
// triangular update set {(i,j,k): i > k, j > k}. FW is Floyd-Warshall
// all-pairs shortest path: the min-plus kernel over the full cube, which
// yields the blocked phase structure diagonal tile, pivot row and column,
// then the rest. kernels.GESerial and kernels.FWSerial are their loop-based
// serial references (Listing 2).
var (
	GE = Algorithm{Kernel: kernels.GE, Shape: Triangular}
	FW = Algorithm{Kernel: kernels.FW, Shape: Cube}
)

// validate checks the problem geometry shared by all drivers.
func validate(x *matrix.Dense, base int) error {
	n := x.Rows()
	if n != x.Cols() {
		return fmt.Errorf("gep: matrix must be square, got %dx%d", n, x.Cols())
	}
	if !matrix.IsPow2(n) {
		return fmt.Errorf("gep: side %d must be a power of two (pad with matrix.PadPow2)", n)
	}
	if base < 1 {
		return fmt.Errorf("gep: base %d must be >= 1", base)
	}
	return nil
}

// BaseSize returns the block size the 2-way recursion bottoms out at: halve
// n until it is <= base. For power-of-two n and any base >= 1 this is the
// uniform side length of every base-case tile.
func BaseSize(n, base int) int { return baseSizeR(n, base, 2) }

// baseSizeR returns the block size the r-way recursion bottoms out at:
// divide n by r while the result stays divisible and above base. It is the
// one statement of where the recursion stops: a call is a base case exactly
// when its side is this size.
func baseSizeR(n, base, r int) int {
	s := n
	for s > base && s%r == 0 {
		s /= r
	}
	return s
}

// RDPSerial runs the 2-way recursion serially: identical operation order to
// the parallel drivers, no runtime. It is the reference the parallel
// versions are tested against.
func (alg Algorithm) RDPSerial(x *matrix.Dense, base int) error {
	return alg.RDPSerialR(x, base, 2)
}

// RDPSerialR runs the parametric r-way generalisation of the recursion
// (Javanmard et al., the paper's references [15, 16]) serially: each level
// splits the block into r×r sub-blocks instead of 2×2. Larger r exposes
// more parallelism per join — as r approaches the tile count the algorithm
// degenerates into the flat tiled wavefront and the fork-join
// artificial-dependency penalty vanishes — at the price of losing cache
// obliviousness (cmd/dpbench -exp rway measures the span).
func (alg Algorithm) RDPSerialR(x *matrix.Dense, base, r int) error {
	d, err := alg.newDriver(x, base, r)
	if err != nil {
		return err
	}
	d.serial(d.root())
	return nil
}

// ForkJoinR runs the r-way recursion on the fork-join pool; r = 2 has the
// task structure of the paper's Listing 3. The calls of a stage (B and C,
// the pairs inside B and C, the quadruples inside D) are spawned tasks
// joined by a taskwait, which is exactly where the artificial dependencies
// come from. When ctx is cancelled the pool unwinds the recursion at the
// next spawn or taskwait and the call returns ctx.Err() (see
// forkjoin.Pool.RunContext).
func (alg Algorithm) ForkJoinR(ctx context.Context, x *matrix.Dense, base, r int, p *forkjoin.Pool) error {
	d, err := alg.newDriver(x, base, r)
	if err != nil {
		return err
	}
	return p.RunContext(ctx, func(c *forkjoin.Ctx) { d.forkJoin(c, d.root()) })
}

// driver interprets the schedule walk on a matrix: serially, or on the
// fork-join pool. bs is the side of a base case (baseSizeR).
type driver struct {
	x     *matrix.Dense
	bs, r int
	alg   Algorithm
}

func (alg Algorithm) newDriver(x *matrix.Dense, base, r int) (*driver, error) {
	if err := validate(x, base); err != nil {
		return nil, err
	}
	if r < 2 {
		return nil, fmt.Errorf("gep: r-way split needs r >= 2, got %d", r)
	}
	return &driver{x: x, bs: baseSizeR(x.Rows(), base, r), r: r, alg: alg}, nil
}

// root is the call that is the whole problem.
func (d *driver) root() Tag { return Tag{S: d.x.Rows()} }

func (d *driver) kernel(t Tag) { d.alg.Kernel(d.x, t.I*t.S, t.J*t.S, t.K*t.S, t.S) }

// serial runs the stages of a call in order.
func (d *driver) serial(t Tag) {
	if t.S == d.bs {
		d.kernel(t)
		return
	}
	for w := d.alg.Shape.walk(t, d.r); ; {
		sub, _, ok := w.next()
		if !ok {
			return
		}
		d.serial(sub)
	}
}

// fjCall is the spawn trampoline: a package-level function invoked through
// forkjoin.SpawnCall with the driver as receiver and the call as plain
// integers, so the O(n³/b³) interior spawns of the recursion allocate no
// closures (see forkjoin.Ctx.SpawnCall).
func fjCall(c *forkjoin.Ctx, recv any, a [4]int) {
	recv.(*driver).forkJoin(c, Tag{a[0], a[1], a[2], a[3]})
}

// forkJoin spawns the calls of a stage and waits for all of them before the
// next stage starts. That taskwait is the artificial dependency: D(X00) of
// the second round truly depends only on D(X00) of the first, yet it waits
// for all four quadrants. A stage of one call runs on the caller.
func (d *driver) forkJoin(c *forkjoin.Ctx, t Tag) {
	if t.S == d.bs {
		declareRace(c, t)
		d.kernel(t)
		return
	}
	var g forkjoin.Group
	spawned := false
	for w := d.alg.Shape.walk(t, d.r); ; {
		sub, last, ok := w.next()
		switch {
		case !ok:
			return
		case last && !spawned:
			d.forkJoin(c, sub)
		default:
			c.SpawnCall(&g, fjCall, d, [4]int{sub.I, sub.J, sub.K, sub.S})
			spawned = !last
			if last {
				c.Wait(&g)
			}
		}
	}
}

// declareRace reports the tile-granularity access set of one base-case
// kernel to the pool's race detector when the run is race-checked: the
// update of tile (I,J) at phase K reads tiles (I,K), (K,J) and (K,K) — the
// GEP data flow of the paper's Figure 2. Base calls are in units of the
// base tile, so their coordinates are exact cell ids. Without detection the
// cost is the one nil check.
func declareRace(c *forkjoin.Ctx, t Tag) {
	f := c.Race()
	if f == nil {
		return
	}
	w := determinacy.TileCell(t.I, t.J)
	f.Write(w)
	for _, rd := range [...]uint64{
		determinacy.TileCell(t.I, t.K),
		determinacy.TileCell(t.K, t.J),
		determinacy.TileCell(t.K, t.K),
	} {
		if rd != w {
			f.Read(rd)
		}
	}
}
