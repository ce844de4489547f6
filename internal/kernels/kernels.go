// Package kernels provides the serial base-case tile kernels shared by every
// implementation (loop-based, fork-join, data-flow) of the three DP
// benchmarks studied in the paper:
//
//   - GE: Gaussian Elimination without pivoting,
//   - FW: Floyd-Warshall all-pairs shortest path,
//   - SW: Smith-Waterman local alignment.
//
// All kernels operate on the full DP table with explicit index ranges, like
// the paper's ge_iterative_kernel(input_sz, block_sz, I, J, K, dp_table):
// a base-case task for tile (I, J) at elimination step range K reads pivot
// data from other tiles of the same table, so the kernels need global
// coordinates rather than isolated tile views.
//
// Each kernel comes in two forms: a guarded reference form that mirrors
// the paper's loop nest literally (GEGuarded, FWRef, SWRef), and the
// optimised form used by every runtime — branch-hoisted (the paper notes
// the same optimisation was applied "to enable vectorization") and
// register-blocked: the GE and FW inner loops are unrolled four rows deep
// so each load of the shared pivot/via row element feeds four scalar
// accumulator updates, and the SW inner loop carries the left and diagonal
// neighbours in registers across iterations. All loops run stride-1 over
// the row-major matrix.Dense (j innermost), the access order the cache
// model's StreamLines/PrefetchFriendly closed forms predict is
// prefetch-friendly, and the tiles are re-sliced to equal lengths so the
// compiler drops bounds checks. Tests assert the optimised forms are
// bit-identical to the references: at a fixed elimination/via step k the
// per-(i, j) updates are independent and the blocked forms perform exactly
// the same arithmetic on exactly the same operand values, so no
// floating-point reassociation occurs.
package kernels

import "dpflow/internal/matrix"

// GE applies the Gaussian-elimination update to the block of X with row
// range [i0, i0+b), column range [j0, j0+b) and elimination-step range
// [k0, k0+b):
//
//	for k, i, j in block: if i > k && j > k { X[i][j] -= X[i][k]*X[k][j] / X[k][k] }
//
// This is the branch-hoisted, register-blocked form: the guards i > k and
// j > k are folded into the loop bounds so the innermost loop is
// branch-free, the row multiplier X[i][k]/X[k][k] is computed once per row
// (the vectorisation optimisation the paper applied to its C++ kernels),
// and the row loop is unrolled 4× so each pivot-row element loaded feeds
// four independent scalar updates. The update of row i at column j is
// X[i][j] -= (X[i][k]/X[k][k]) * X[k][j] in both the blocked and the
// guarded form — identical operands, identical operation order per
// element — so the result is bit-identical to GEGuarded; no row in
// [max(i0,k+1), i0+b) aliases pivot row k and column k is never written
// (both guards are strict), so the early multiplier loads are safe.
//
// Note on the guard: the paper's Listing 2 writes j >= k, but executing that
// in place with an ascending j loop destroys the multiplier column X[·][k]
// (the j == k update zeroes it) before the j > k updates read it, both
// within a block and — fatally — across the C-before-D tile ordering that
// Listing 5 enforces. The update set that makes the recurrence and the
// A/B/C/D dependency structure consistent is the strict Σ_GE of Chowdhury &
// Ramachandran's Gaussian Elimination Paradigm: i > k && j > k, which is
// what every implementation in this repository uses. Sub-diagonal entries
// consequently retain their last intermediate values instead of being
// zeroed; forward elimination of an augmented system is unaffected because
// the right-hand-side column has j > k for every step.
func GE(x *matrix.Dense, i0, j0, k0, b int) {
	for k := k0; k < k0+b; k++ {
		pivot := x.At(k, k)
		iStart := i0
		if k+1 > iStart {
			iStart = k + 1
		}
		jStart := j0
		if k+1 > jStart {
			jStart = k + 1
		}
		jEnd := j0 + b
		if jStart >= jEnd {
			continue
		}
		iEnd := i0 + b
		p := x.RowSeg(k, jStart, jEnd)
		i := iStart
		for ; i+3 < iEnd; i += 4 {
			f0 := x.At(i, k) / pivot
			f1 := x.At(i+1, k) / pivot
			f2 := x.At(i+2, k) / pivot
			f3 := x.At(i+3, k) / pivot
			r0 := x.RowSeg(i, jStart, jEnd)[:len(p)]
			r1 := x.RowSeg(i+1, jStart, jEnd)[:len(p)]
			r2 := x.RowSeg(i+2, jStart, jEnd)[:len(p)]
			r3 := x.RowSeg(i+3, jStart, jEnd)[:len(p)]
			for jj, pv := range p {
				r0[jj] -= f0 * pv
				r1[jj] -= f1 * pv
				r2[jj] -= f2 * pv
				r3[jj] -= f3 * pv
			}
		}
		for ; i < iEnd; i++ {
			f := x.At(i, k) / pivot
			r := x.RowSeg(i, jStart, jEnd)[:len(p)]
			for jj, pv := range p {
				r[jj] -= f * pv
			}
		}
	}
}

// GEGuarded is the literal guarded transcription of the GE block update (the
// shape of the paper's Listing 2 loop nest, with the strict Σ_GE guard); it
// exists as a branch-per-iteration reference implementation for tests.
func GEGuarded(x *matrix.Dense, i0, j0, k0, b int) {
	for k := k0; k < k0+b; k++ {
		for i := i0; i < i0+b; i++ {
			for j := j0; j < j0+b; j++ {
				if i > k && j > k {
					x.Set(i, j, x.At(i, j)-(x.At(i, k)/x.At(k, k))*x.At(k, j))
				}
			}
		}
	}
}

// GESerial runs the full loop-based serial GE on an n×n matrix: the k loop
// stops at n-1, exactly as in the paper's Listing 2.
func GESerial(x *matrix.Dense) {
	n := x.Rows()
	for k := 0; k < n-1; k++ {
		pivotRow := x.Row(k)
		pivot := pivotRow[k]
		for i := k + 1; i < n; i++ {
			row := x.Row(i)
			factor := row[k] / pivot
			for j := k + 1; j < n; j++ {
				row[j] -= factor * pivotRow[j]
			}
		}
	}
}

// FW applies the Floyd-Warshall min-plus update to the block of X with row
// range [i0, i0+b), column range [j0, j0+b) and intermediate-vertex range
// [k0, k0+b):
//
//	X[i][j] = min(X[i][j], X[i][k] + X[k][j])
//
// This is the register-blocked form: the row loop is unrolled 4× so each
// via-row element X[k][j] loaded feeds four independent min-plus updates,
// with the X[i][k] distances held in scalars across the inner loop. When
// the tile contains via row k itself (diagonal tiles), the blocked form
// still updates each column element in ascending-i order — exactly the
// per-element order of the rolled loop — and the X[i][k] scalars are
// loaded at points where no preceding update in either form could have
// written them, so the result is bit-identical to FWRef.
func FW(x *matrix.Dense, i0, j0, k0, b int) {
	jEnd := j0 + b
	iEnd := i0 + b
	for k := k0; k < k0+b; k++ {
		via := x.RowSeg(k, j0, jEnd)
		i := i0
		for ; i+3 < iEnd; i += 4 {
			d0 := x.At(i, k)
			d1 := x.At(i+1, k)
			d2 := x.At(i+2, k)
			d3 := x.At(i+3, k)
			r0 := x.RowSeg(i, j0, jEnd)[:len(via)]
			r1 := x.RowSeg(i+1, j0, jEnd)[:len(via)]
			r2 := x.RowSeg(i+2, j0, jEnd)[:len(via)]
			r3 := x.RowSeg(i+3, j0, jEnd)[:len(via)]
			for jj := range via {
				vj := via[jj]
				if d := d0 + vj; d < r0[jj] {
					r0[jj] = d
				}
				if d := d1 + vj; d < r1[jj] {
					r1[jj] = d
				}
				if d := d2 + vj; d < r2[jj] {
					r2[jj] = d
				}
				if d := d3 + vj; d < r3[jj] {
					r3[jj] = d
				}
			}
		}
		for ; i < iEnd; i++ {
			dik := x.At(i, k)
			r := x.RowSeg(i, j0, jEnd)[:len(via)]
			for jj := range via {
				if d := dik + via[jj]; d < r[jj] {
					r[jj] = d
				}
			}
		}
	}
}

// FWRef is the literal rolled transcription of the FW block update; it
// exists as the per-element reference implementation for equivalence tests
// against the register-blocked FW.
func FWRef(x *matrix.Dense, i0, j0, k0, b int) {
	for k := k0; k < k0+b; k++ {
		for i := i0; i < i0+b; i++ {
			dik := x.At(i, k)
			for j := j0; j < j0+b; j++ {
				if d := dik + x.At(k, j); d < x.At(i, j) {
					x.Set(i, j, d)
				}
			}
		}
	}
}

// FWSerial runs the classic triply nested Floyd-Warshall loop on the full
// n×n distance matrix.
func FWSerial(x *matrix.Dense) {
	n := x.Rows()
	FW(x, 0, 0, 0, n)
}

// Scoring holds the Smith-Waterman scoring scheme: match reward, mismatch
// penalty and linear gap penalty. Match must be positive and the penalties
// are given as positive magnitudes.
type Scoring struct {
	Match    float64
	Mismatch float64
	Gap      float64
}

// DefaultScoring is the standard +2/-1/-1 DNA scheme used by the examples
// and benchmarks.
var DefaultScoring = Scoring{Match: 2, Mismatch: 1, Gap: 1}

// Score returns the substitution score for aligning bytes a and b.
func (s Scoring) Score(a, b byte) float64 {
	if a == b {
		return s.Match
	}
	return -s.Mismatch
}

// SW fills the Smith-Waterman block of H with row range [i0, i0+b) and
// column range [j0, j0+b). H is an (len(a)+1)×(len(b)+1) table whose row 0
// and column 0 are fixed at zero; i0 and j0 are therefore >= 1. Cells
// outside the block (the row above and column to the left) must already be
// final — the callers' recursion or wavefront ordering guarantees this.
//
//	H[i][j] = max(0, H[i-1][j-1]+score(a[i-1],b[j-1]), H[i-1][j]-gap, H[i][j-1]-gap)
//
// This is the register-carried form: the column loop has a loop-carried
// dependency through H[i][j-1] (no j-unrolling is possible), so instead the
// left and diagonal neighbours are carried in registers across iterations —
// each cell loads only H[i-1][j] and b[j-1], and the freshly computed score
// becomes the next iteration's left neighbour without a reload. The
// candidate set and comparison order per cell are identical to SWRef, so
// the result is bit-identical.
func SW(h *matrix.Dense, a, b []byte, sc Scoring, i0, j0, bsz int) {
	iEnd := i0 + bsz
	jEnd := j0 + bsz
	gap := sc.Gap
	bseg := b[j0-1 : jEnd-1]
	for i := i0; i < iEnd; i++ {
		// Segments start one column early so row[0]/above[0] are the
		// already-final west and northwest neighbours of the tile.
		row := h.RowSeg(i, j0-1, jEnd)[:len(bseg)+1]
		above := h.RowSeg(i-1, j0-1, jEnd)[:len(bseg)+1]
		ai := a[i-1]
		left := row[0]
		diag := above[0]
		for jj, bj := range bseg {
			up := above[jj+1]
			best := diag + sc.Score(ai, bj)
			if v := up - gap; v > best {
				best = v
			}
			if v := left - gap; v > best {
				best = v
			}
			if best < 0 {
				best = 0
			}
			row[jj+1] = best
			left = best
			diag = up
		}
	}
}

// SWRef is the literal transcription of the SW block fill, loading all
// three neighbours from the table every cell; it exists as the reference
// implementation for equivalence tests against the register-carried SW.
func SWRef(h *matrix.Dense, a, b []byte, sc Scoring, i0, j0, bsz int) {
	iEnd := i0 + bsz
	jEnd := j0 + bsz
	for i := i0; i < iEnd; i++ {
		ai := a[i-1]
		for j := j0; j < jEnd; j++ {
			best := h.At(i-1, j-1) + sc.Score(ai, b[j-1])
			if up := h.At(i-1, j) - sc.Gap; up > best {
				best = up
			}
			if left := h.At(i, j-1) - sc.Gap; left > best {
				best = left
			}
			if best < 0 {
				best = 0
			}
			h.Set(i, j, best)
		}
	}
}

// SWSerial fills the full (len(a)+1)×(len(b)+1) Smith-Waterman table and
// returns the maximum local-alignment score.
func SWSerial(h *matrix.Dense, a, b []byte, sc Scoring) float64 {
	SW(h, a, b, sc, 1, 1, h.Rows()-1)
	return MaxScore(h)
}

// SWLinear computes the Smith-Waterman maximum score in O(n) space, the
// optimisation the paper applied to its SW benchmark ("we have optimized the
// algorithm to consume O(n) space"). It keeps only the previous row.
func SWLinear(a, b []byte, sc Scoring) float64 {
	prev := make([]float64, len(b)+1)
	cur := make([]float64, len(b)+1)
	best := 0.0
	for i := 1; i <= len(a); i++ {
		ai := a[i-1]
		cur[0] = 0
		for j := 1; j <= len(b); j++ {
			v := prev[j-1] + sc.Score(ai, b[j-1])
			if up := prev[j] - sc.Gap; up > v {
				v = up
			}
			if left := cur[j-1] - sc.Gap; left > v {
				v = left
			}
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
	}
	return best
}

// MaxScore returns the maximum element of a Smith-Waterman table.
func MaxScore(h *matrix.Dense) float64 {
	best := 0.0
	for i := 0; i < h.Rows(); i++ {
		for _, v := range h.Row(i) {
			if v > best {
				best = v
			}
		}
	}
	return best
}
