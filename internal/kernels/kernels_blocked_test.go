package kernels

import (
	"math/rand"
	"testing"

	"dpflow/internal/matrix"
)

// Geometry sweep for the register-blocked kernels: every tile size from 1
// to a couple past the 4× unroll factor plus larger non-multiples, so the
// unrolled groups, the remainder rows, and the all-remainder (b < 4) path
// are all exercised.
var blockedSizes = []int{1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 16, 17}

// The register-blocked GE must be bit-identical to the guarded reference on
// every block geometry, including tiles whose row count is not a multiple
// of the unroll factor and k ranges that the strict i>k / j>k guards clamp
// to partial or empty update sets (diagonal tiles, and tiles whose k range
// reaches past the last column of the block).
func TestGEBlockedMatchesGuardedOddGeometries(t *testing.T) {
	const n = 36
	for _, b := range blockedSizes {
		for _, d := range []struct{ i0, j0, k0 int }{
			{0, 0, 0},                         // diagonal tile: guards clamp every k step
			{n - b, n - b, n - b},             // last diagonal tile: k range hits the matrix edge
			{b, 0, 0},                         // pivot-column tile (j range fully clamped at k=j0..)
			{0, b, 0},                         // pivot-row tile
			{b, b, 0},                         // interior tile, unclamped
			{n - b, b, 0},                     // bottom strip
			{b, n - b, 0},                     // right strip
			{2 * b % (n - b), b, b % (n - b)}, // misaligned odd offsets
		} {
			if d.i0 < 0 || d.j0 < 0 || d.k0 < 0 || d.i0+b > n || d.j0+b > n || d.k0+b > n {
				continue
			}
			a := randomGE(n, int64(97*b+d.i0+2*d.j0+3*d.k0))
			ref := a.Clone()
			GE(a, d.i0, d.j0, d.k0, b)
			GEGuarded(ref, d.i0, d.j0, d.k0, b)
			if !matrix.Equal(a, ref) {
				t.Fatalf("GE != GEGuarded at i0=%d j0=%d k0=%d b=%d (maxdiff %g)",
					d.i0, d.j0, d.k0, b, matrix.MaxAbsDiff(a, ref))
			}
		}
	}
}

// The register-blocked FW must be bit-identical to the rolled reference on
// every block geometry — most importantly diagonal tiles, where the tile
// contains via row k and the blocked form's 4-row groups alias it.
func TestFWBlockedMatchesRefOddGeometries(t *testing.T) {
	const n = 36
	for _, b := range blockedSizes {
		for _, d := range []struct{ i0, j0, k0 int }{
			{0, 0, 0},             // diagonal tile: rows alias the via row
			{n - b, n - b, n - b}, // last diagonal tile
			{0, b, 0},             // via-row strip (i range contains k, j disjoint)
			{b, 0, 0},             // via-column strip (reads X[i][k] inside the j range)
			{b, b, 0},             // interior tile, no aliasing
			{n - b, 0, b},         // bottom-left with offset k
		} {
			if d.i0 < 0 || d.j0 < 0 || d.k0 < 0 || d.i0+b > n || d.j0+b > n || d.k0+b > n {
				continue
			}
			x := randomDist(n, int64(31*b+d.i0+2*d.j0+3*d.k0))
			ref := x.Clone()
			FW(x, d.i0, d.j0, d.k0, b)
			FWRef(ref, d.i0, d.j0, d.k0, b)
			if !matrix.Equal(x, ref) {
				t.Fatalf("FW != FWRef at i0=%d j0=%d k0=%d b=%d (maxdiff %g)",
					d.i0, d.j0, d.k0, b, matrix.MaxAbsDiff(x, ref))
			}
		}
	}
}

// The register-carried SW must be bit-identical to the literal reference on
// every tile of a wavefront decomposition. The tiles are filled in
// wavefront order so each tile's west/north/northwest halo is final before
// it runs, exactly as the parallel runtimes guarantee.
func TestSWRegisterCarriedMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{1, 3, 8, 20} {
		for _, bsz := range blockedSizes {
			if bsz > n || n%bsz != 0 {
				continue
			}
			a, b := randSeq(n, rng), randSeq(n, rng)
			h := matrix.New(n+1, n+1)
			ref := matrix.New(n+1, n+1)
			tiles := n / bsz
			for I := 0; I < tiles; I++ {
				for J := 0; J < tiles; J++ {
					SW(h, a, b, DefaultScoring, 1+I*bsz, 1+J*bsz, bsz)
					SWRef(ref, a, b, DefaultScoring, 1+I*bsz, 1+J*bsz, bsz)
				}
			}
			if !matrix.Equal(h, ref) {
				t.Fatalf("SW != SWRef for n=%d bsz=%d", n, bsz)
			}
		}
	}
}

// Whole-table fills through the blocked kernels must still match the serial
// oracles at odd table sizes (k-range boundary: when b spans the whole
// matrix, GE's own guards stop its k loop at n-1, as Listing 2's k < N-1
// does).
func TestBlockedWholeTableOddSizes(t *testing.T) {
	for _, n := range []int{2, 3, 5, 7, 10, 17, 33} {
		a := randomGE(n, int64(1000+n))
		ref := a.Clone()
		GE(a, 0, 0, 0, n)
		GEGuarded(ref, 0, 0, 0, n)
		if !matrix.Equal(a, ref) {
			t.Fatalf("whole-table GE != GEGuarded at n=%d", n)
		}

		x := randomDist(n, int64(2000+n))
		fref := x.Clone()
		FW(x, 0, 0, 0, n)
		FWRef(fref, 0, 0, 0, n)
		if !matrix.Equal(x, fref) {
			t.Fatalf("whole-table FW != FWRef at n=%d", n)
		}
	}
}

// The kernels are the per-task steady state of every runtime: they must
// not allocate at all.
func TestKernelsAllocFree(t *testing.T) {
	const n, b = 32, 8
	ge := randomGE(n, 1)
	if allocs := testing.AllocsPerRun(10, func() { GE(ge, b, b, 0, b) }); allocs != 0 {
		t.Fatalf("GE allocates %v times per run", allocs)
	}
	fw := randomDist(n, 2)
	if allocs := testing.AllocsPerRun(10, func() { FW(fw, b, b, 0, b) }); allocs != 0 {
		t.Fatalf("FW allocates %v times per run", allocs)
	}
	rng := rand.New(rand.NewSource(3))
	a, bs := randSeq(n, rng), randSeq(n, rng)
	h := matrix.New(n+1, n+1)
	if allocs := testing.AllocsPerRun(10, func() { SW(h, a, bs, DefaultScoring, 1+b, 1+b, b) }); allocs != 0 {
		t.Fatalf("SW allocates %v times per run", allocs)
	}
}
