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
// The recursion and the tile dependencies are stated once (recurrence.go)
// and handed to the interpreters as a Flow (flow.go, shared with the other
// benchmarks): serial, fork-join (Listing 3) on the forkjoin pool, and the
// CnC data-flow program (Listings 4–5) in its Native, Tuner, Manual and
// non-blocking-get variants. The kernel — the base-case tile update — is a
// parameter, so GE (subtract outer product / pivot) and FW (min-plus) reuse
// the identical machinery.
package gep

import (
	"fmt"

	"dpflow/internal/determinacy"
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

// Algorithm couples a base-case kernel with the update-set shape.
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

// validate checks the problem geometry.
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
// uniform side length of every base-case tile — the one statement of where
// the recursion stops: a call is a base case exactly when its side is this
// size.
func BaseSize(n, base int) int {
	s := n
	for s > base && s%2 == 0 {
		s /= 2
	}
	return s
}

// Flow states the recurrence on x for the shared interpreters — the
// GEContext of Listing 4. Tags are calls of the 2-way walk; a call of
// base-tile side is a base task, and its block coordinates are its item
// key. Flow.Serial is the reference the parallel executions are tested
// against.
func (alg Algorithm) Flow(x *matrix.Dense, base int) (*Flow[Tag, ItemKey], error) {
	if err := validate(x, base); err != nil {
		return nil, err
	}
	n := x.Rows()
	bs := BaseSize(n, base)
	tiles := n / bs
	f := &Flow[Tag, ItemKey]{
		Numbering: alg.Shape.Numbering(tiles),
		Coll:      func(k ItemKey) int { return int(Classify(k.I, k.J, k.K)) },
		Task:      func(t Tag) (ItemKey, bool) { return ItemKey{t.I, t.J, t.K}, t.S == bs },
		Walk: func(t Tag, flat bool, visit func(Tag, bool)) {
			r := 2
			if flat {
				r = t.S / bs
			}
			alg.Shape.Walk(t, r, visit)
		},
		Preds: func(k ItemKey, f func(ItemKey) bool) bool { return alg.Shape.Preds(tiles, k, f) },
		Succs: func(k ItemKey, f func(ItemKey) bool) bool { return alg.Shape.Succs(tiles, k, f) },
		Kernel: func(k ItemKey, fr *determinacy.Frame) error {
			if fr != nil {
				// The update of tile (I,J) at phase K reads tiles (I,K), (K,J)
				// and (K,K) — the GEP data flow of the paper's Figure 2.
				w := determinacy.TileCell(k.I, k.J)
				fr.Write(w)
				for _, rd := range [...]uint64{
					determinacy.TileCell(k.I, k.K),
					determinacy.TileCell(k.K, k.J),
					determinacy.TileCell(k.K, k.K),
				} {
					if rd != w {
						fr.Read(rd)
					}
				}
			}
			alg.Kernel(x, k.I*bs, k.J*bs, k.K*bs, bs)
			return nil
		},
		Root:      Tag{S: n},
		TileBytes: bs * bs * 8,
	}
	for fn := FuncA; fn <= FuncD; fn++ {
		f.Colls = append(f.Colls, [3]string{fn.String(), fn.String() + "_tags", fn.String() + "_outputs"})
	}
	return f, nil
}
