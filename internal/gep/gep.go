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
// The package provides every execution of the recursion the paper compares:
// serial, fork-join (Listing 3) on the forkjoin pool, and the CnC data-flow
// program (Listings 4–5) in its Native, Tuner, Manual and non-blocking-get
// variants. The kernel — the base-case tile update — is a parameter, so GE
// (subtract outer product / pivot) and FW (min-plus) reuse the identical
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

// String names the shape.
func (s Shape) String() string {
	if s == Triangular {
		return "triangular"
	}
	return "cube"
}

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

// BaseSize returns the block size the recursion bottoms out at: halve n
// until it is <= base. For power-of-two n and any base >= 1 this is the
// uniform side length of every base-case tile.
func BaseSize(n, base int) int {
	s := n
	for s > base {
		s /= 2
	}
	return s
}

// RDPSerial runs the recursion serially: identical operation order to the
// parallel drivers, no runtime. It is the reference the parallel versions
// are tested against.
func (alg Algorithm) RDPSerial(x *matrix.Dense, base int) error {
	if err := validate(x, base); err != nil {
		return err
	}
	r := serialRec{x: x, base: base, alg: alg}
	r.funcA(0, x.Rows())
	return nil
}

type serialRec struct {
	x    *matrix.Dense
	base int
	alg  Algorithm
}

func (r *serialRec) funcA(d, s int) {
	if s <= r.base {
		r.alg.Kernel(r.x, d, d, d, s)
		return
	}
	h := s / 2
	r.funcA(d, h)
	r.funcB(d, d+h, d, h)
	r.funcC(d+h, d, d, h)
	r.funcD(d+h, d+h, d, h)
	r.funcA(d+h, h)
	if r.alg.Shape == Cube {
		r.funcB(d+h, d, d+h, h)
		r.funcC(d, d+h, d+h, h)
		r.funcD(d, d, d+h, h)
	}
}

func (r *serialRec) funcB(i0, j0, k0, s int) {
	if s <= r.base {
		r.alg.Kernel(r.x, i0, j0, k0, s)
		return
	}
	h := s / 2
	r.funcB(i0, j0, k0, h)
	r.funcB(i0, j0+h, k0, h)
	r.funcD(i0+h, j0, k0, h)
	r.funcD(i0+h, j0+h, k0, h)
	r.funcB(i0+h, j0, k0+h, h)
	r.funcB(i0+h, j0+h, k0+h, h)
	if r.alg.Shape == Cube {
		r.funcD(i0, j0, k0+h, h)
		r.funcD(i0, j0+h, k0+h, h)
	}
}

func (r *serialRec) funcC(i0, j0, k0, s int) {
	if s <= r.base {
		r.alg.Kernel(r.x, i0, j0, k0, s)
		return
	}
	h := s / 2
	r.funcC(i0, j0, k0, h)
	r.funcC(i0+h, j0, k0, h)
	r.funcD(i0, j0+h, k0, h)
	r.funcD(i0+h, j0+h, k0, h)
	r.funcC(i0, j0+h, k0+h, h)
	r.funcC(i0+h, j0+h, k0+h, h)
	if r.alg.Shape == Cube {
		r.funcD(i0, j0, k0+h, h)
		r.funcD(i0+h, j0, k0+h, h)
	}
}

func (r *serialRec) funcD(i0, j0, k0, s int) {
	if s <= r.base {
		r.alg.Kernel(r.x, i0, j0, k0, s)
		return
	}
	h := s / 2
	for kk := 0; kk <= h; kk += h {
		r.funcD(i0, j0, k0+kk, h)
		r.funcD(i0, j0+h, k0+kk, h)
		r.funcD(i0+h, j0, k0+kk, h)
		r.funcD(i0+h, j0+h, k0+kk, h)
	}
}

// ForkJoin runs the recursion on the fork-join pool with the task structure
// of the paper's Listing 3: B and C (and the parallel pairs inside B, C and
// D) are spawned tasks joined by a taskwait, which is exactly where the
// artificial dependencies come from.
func (alg Algorithm) ForkJoin(x *matrix.Dense, base int, p *forkjoin.Pool) error {
	return alg.ForkJoinContext(context.Background(), x, base, p)
}

// ForkJoinContext is ForkJoin with cooperative cancellation: when ctx is
// cancelled the pool unwinds the recursion at the next spawn or taskwait
// and the call returns ctx.Err() (see forkjoin.Pool.RunContext).
func (alg Algorithm) ForkJoinContext(ctx context.Context, x *matrix.Dense, base int, p *forkjoin.Pool) error {
	if err := validate(x, base); err != nil {
		return err
	}
	r := fjRec{x: x, base: base, alg: alg}
	return p.RunContext(ctx, func(c *forkjoin.Ctx) { r.funcA(c, 0, x.Rows()) })
}

type fjRec struct {
	x    *matrix.Dense
	base int
	alg  Algorithm
}

// Spawn trampolines: package-level functions invoked through
// forkjoin.SpawnCall with the recursion state as receiver and the tile
// coordinates as plain integers, so the O(n³/b³) interior spawns of the
// recursion allocate no closures (see forkjoin.Ctx.SpawnCall).
func fjCallB(c *forkjoin.Ctx, recv any, a [4]int) { recv.(*fjRec).funcB(c, a[0], a[1], a[2], a[3]) }
func fjCallC(c *forkjoin.Ctx, recv any, a [4]int) { recv.(*fjRec).funcC(c, a[0], a[1], a[2], a[3]) }
func fjCallD(c *forkjoin.Ctx, recv any, a [4]int) { recv.(*fjRec).funcD(c, a[0], a[1], a[2], a[3]) }

// declareRace reports the tile-granularity access set of one base-case
// kernel to the pool's race detector when the run is race-checked: the
// update of tile (i0,j0) at phase k0 reads tiles (i0,k0), (k0,j0) and
// (k0,k0) — the GEP data flow of the paper's Figure 2. Every base tile has
// side s, so block indices are exact cell ids. Without detection the cost
// is the one nil check.
func declareRace(c *forkjoin.Ctx, i0, j0, k0, s int) {
	f := c.Race()
	if f == nil {
		return
	}
	w := determinacy.TileCell(i0/s, j0/s)
	f.Write(w)
	for _, rd := range [...]uint64{
		determinacy.TileCell(i0/s, k0/s),
		determinacy.TileCell(k0/s, j0/s),
		determinacy.TileCell(k0/s, k0/s),
	} {
		if rd != w {
			f.Read(rd)
		}
	}
}

func (r *fjRec) funcA(ctx *forkjoin.Ctx, d, s int) {
	if s <= r.base {
		declareRace(ctx, d, d, d, s)
		r.alg.Kernel(r.x, d, d, d, s)
		return
	}
	h := s / 2
	r.funcA(ctx, d, h)
	var g forkjoin.Group
	ctx.SpawnCall(&g, fjCallB, r, [4]int{d, d + h, d, h})
	ctx.SpawnCall(&g, fjCallC, r, [4]int{d + h, d, d, h})
	ctx.Wait(&g) // artificial dependency: D waits for both B and C subtrees
	r.funcD(ctx, d+h, d+h, d, h)
	r.funcA(ctx, d+h, h)
	if r.alg.Shape == Cube {
		ctx.SpawnCall(&g, fjCallB, r, [4]int{d + h, d, d + h, h})
		ctx.SpawnCall(&g, fjCallC, r, [4]int{d, d + h, d + h, h})
		ctx.Wait(&g)
		r.funcD(ctx, d, d, d+h, h)
	}
}

func (r *fjRec) funcB(ctx *forkjoin.Ctx, i0, j0, k0, s int) {
	if s <= r.base {
		declareRace(ctx, i0, j0, k0, s)
		r.alg.Kernel(r.x, i0, j0, k0, s)
		return
	}
	h := s / 2
	var g forkjoin.Group
	ctx.SpawnCall(&g, fjCallB, r, [4]int{i0, j0, k0, h})
	ctx.SpawnCall(&g, fjCallB, r, [4]int{i0, j0 + h, k0, h})
	ctx.Wait(&g)
	ctx.SpawnCall(&g, fjCallD, r, [4]int{i0 + h, j0, k0, h})
	ctx.SpawnCall(&g, fjCallD, r, [4]int{i0 + h, j0 + h, k0, h})
	ctx.Wait(&g)
	ctx.SpawnCall(&g, fjCallB, r, [4]int{i0 + h, j0, k0 + h, h})
	ctx.SpawnCall(&g, fjCallB, r, [4]int{i0 + h, j0 + h, k0 + h, h})
	ctx.Wait(&g)
	if r.alg.Shape == Cube {
		ctx.SpawnCall(&g, fjCallD, r, [4]int{i0, j0, k0 + h, h})
		ctx.SpawnCall(&g, fjCallD, r, [4]int{i0, j0 + h, k0 + h, h})
		ctx.Wait(&g)
	}
}

func (r *fjRec) funcC(ctx *forkjoin.Ctx, i0, j0, k0, s int) {
	if s <= r.base {
		declareRace(ctx, i0, j0, k0, s)
		r.alg.Kernel(r.x, i0, j0, k0, s)
		return
	}
	h := s / 2
	var g forkjoin.Group
	ctx.SpawnCall(&g, fjCallC, r, [4]int{i0, j0, k0, h})
	ctx.SpawnCall(&g, fjCallC, r, [4]int{i0 + h, j0, k0, h})
	ctx.Wait(&g)
	ctx.SpawnCall(&g, fjCallD, r, [4]int{i0, j0 + h, k0, h})
	ctx.SpawnCall(&g, fjCallD, r, [4]int{i0 + h, j0 + h, k0, h})
	ctx.Wait(&g)
	ctx.SpawnCall(&g, fjCallC, r, [4]int{i0, j0 + h, k0 + h, h})
	ctx.SpawnCall(&g, fjCallC, r, [4]int{i0 + h, j0 + h, k0 + h, h})
	ctx.Wait(&g)
	if r.alg.Shape == Cube {
		ctx.SpawnCall(&g, fjCallD, r, [4]int{i0, j0, k0 + h, h})
		ctx.SpawnCall(&g, fjCallD, r, [4]int{i0 + h, j0, k0 + h, h})
		ctx.Wait(&g)
	}
}

func (r *fjRec) funcD(ctx *forkjoin.Ctx, i0, j0, k0, s int) {
	if s <= r.base {
		declareRace(ctx, i0, j0, k0, s)
		r.alg.Kernel(r.x, i0, j0, k0, s)
		return
	}
	h := s / 2
	var g forkjoin.Group
	for kk := 0; kk <= h; kk += h {
		// The taskwait between the two kk rounds is the textbook artificial
		// dependency: D(X00|kk=1) truly depends only on D(X00|kk=0), yet it
		// must wait for all four kk=0 quadrants.
		ctx.SpawnCall(&g, fjCallD, r, [4]int{i0, j0, k0 + kk, h})
		ctx.SpawnCall(&g, fjCallD, r, [4]int{i0, j0 + h, k0 + kk, h})
		ctx.SpawnCall(&g, fjCallD, r, [4]int{i0 + h, j0, k0 + kk, h})
		ctx.SpawnCall(&g, fjCallD, r, [4]int{i0 + h, j0 + h, k0 + kk, h})
		ctx.Wait(&g)
	}
}
