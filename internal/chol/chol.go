// Package chol implements tiled Cholesky factorisation — the flagship CnC
// case study of the paper's related work (§V: Chandramowlishwaran et al.
// matched or beat MKL with a CnC Cholesky; Budimlić et al. used it to show
// CnC thread scaling). It factors a symmetric positive-definite matrix A
// into L·Lᵀ with the classic three-kernel tile algorithm:
//
//	POTRF(K):      Cholesky of diagonal tile (K,K)
//	TRSM(I,K):     triangular solve of tile (I,K) against L(K,K), I > K
//	UPDATE(I,J,K): A(I,J) -= L(I,K)·L(J,K)ᵀ, K < J <= I
//
// The data-flow dependencies mirror the GE structure (the paper's Fig 2
// family): POTRF(K) ← UPDATE(K,K,K−1); TRSM(I,K) ← POTRF(K) and
// UPDATE(I,K,K−1); UPDATE(I,J,K) ← TRSM(I,K), TRSM(J,K) and
// UPDATE(I,J,K−1). The fork-join version joins after each kernel batch of
// a phase that holds more than one task — the right-looking schedule with
// barriers.
package chol

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dpflow/internal/determinacy"
	"dpflow/internal/gep"
	"dpflow/internal/matrix"
)

// NewSPD generates a random symmetric positive-definite n×n matrix
// (B·Bᵀ/n + I for random B), suitable for Cholesky without pivoting.
// Register-blocked: four rows j of B share one pass over row i, and each
// a[i][j] still sums b[i][k]·b[j][k] in k order, so the values are those
// of the plain triple loop bit for bit.
func NewSPD(n int, rng *rand.Rand) *matrix.Dense {
	b := matrix.NewSquare(n)
	b.FillRandom(rng, -1, 1)
	a := matrix.NewSquare(n)
	set := func(i, j int, sum float64) {
		v := sum/float64(n) + boolTo(i == j)
		a.Set(i, j, v)
		a.Set(j, i, v)
	}
	for i := 0; i < n; i++ {
		bi := b.RowSeg(i, 0, n)
		j := 0
		for ; j+3 <= i; j += 4 {
			b0, b1 := b.RowSeg(j, 0, n)[:len(bi)], b.RowSeg(j+1, 0, n)[:len(bi)]
			b2, b3 := b.RowSeg(j+2, 0, n)[:len(bi)], b.RowSeg(j+3, 0, n)[:len(bi)]
			var s0, s1, s2, s3 float64
			for k, x := range bi {
				s0 += x * b0[k]
				s1 += x * b1[k]
				s2 += x * b2[k]
				s3 += x * b3[k]
			}
			set(i, j, s0)
			set(i, j+1, s1)
			set(i, j+2, s2)
			set(i, j+3, s3)
		}
		for ; j <= i; j++ {
			bj := b.RowSeg(j, 0, n)[:len(bi)]
			s := 0.0
			for k, x := range bi {
				s += x * bj[k]
			}
			set(i, j, s)
		}
	}
	b.Release()
	return a
}

func boolTo(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Serial factors a in place (lower triangle becomes L; the strict upper
// triangle is left untouched). It returns an error on a non-positive
// pivot (a not SPD).
func Serial(a *matrix.Dense) error {
	n := a.Rows()
	for k := 0; k < n; k++ {
		d := a.At(k, k)
		if d <= 0 {
			return fmt.Errorf("chol: non-positive pivot %g at %d", d, k)
		}
		dk := math.Sqrt(d)
		a.Set(k, k, dk)
		for i := k + 1; i < n; i++ {
			a.Set(i, k, a.At(i, k)/dk)
		}
		for j := k + 1; j < n; j++ {
			ljk := a.At(j, k)
			for i := j; i < n; i++ {
				a.Set(i, j, a.At(i, j)-a.At(i, k)*ljk)
			}
		}
	}
	return nil
}

// The three tile kernels, all operating on the full matrix with global
// tile coordinates and tile side bs. They apply exactly the same
// per-element operations in the same order as Serial, so every
// interpreter produces bit-identical factors.

func potrf(a *matrix.Dense, kt, bs int) error {
	lo := kt * bs
	for k := lo; k < lo+bs; k++ {
		d := a.At(k, k)
		if d <= 0 {
			return fmt.Errorf("chol: non-positive pivot %g at %d", d, k)
		}
		dk := math.Sqrt(d)
		a.Set(k, k, dk)
		for i := k + 1; i < lo+bs; i++ {
			a.Set(i, k, a.At(i, k)/dk)
		}
		for j := k + 1; j < lo+bs; j++ {
			ljk := a.At(j, k)
			for i := j; i < lo+bs; i++ {
				a.Set(i, j, a.At(i, j)-a.At(i, k)*ljk)
			}
		}
	}
	return nil
}

func trsm(a *matrix.Dense, it, kt, bs int) {
	iLo, kLo := it*bs, kt*bs
	for k := kLo; k < kLo+bs; k++ {
		dk := a.At(k, k)
		for i := iLo; i < iLo+bs; i++ {
			a.Set(i, k, a.At(i, k)/dk)
		}
		for j := k + 1; j < kLo+bs; j++ {
			ljk := a.At(j, k)
			for i := iLo; i < iLo+bs; i++ {
				a.Set(i, j, a.At(i, j)-a.At(i, k)*ljk)
			}
		}
	}
}

func update(a *matrix.Dense, it, jt, kt, bs int) {
	iLo, jLo, kLo := it*bs, jt*bs, kt*bs
	for k := kLo; k < kLo+bs; k++ {
		for j := jLo; j < jLo+bs; j++ {
			ljk := a.At(j, k)
			iStart := iLo
			if it == jt && j > iStart {
				iStart = j // diagonal tiles update only the lower part
			}
			for i := iStart; i < iLo+bs; i++ {
				a.Set(i, j, a.At(i, j)-a.At(i, k)*ljk)
			}
		}
	}
}

func validate(a *matrix.Dense, base int) error {
	n := a.Rows()
	if n != a.Cols() {
		return fmt.Errorf("chol: matrix must be square, got %dx%d", n, a.Cols())
	}
	if !matrix.IsPow2(n) {
		return fmt.Errorf("chol: side %d must be a power of two", n)
	}
	if base < 1 {
		return fmt.Errorf("chol: base %d must be >= 1", base)
	}
	return nil
}

// Tag identifies one tile task: Kind 0 = POTRF, 1 = TRSM, 2 = UPDATE.
type Tag struct {
	Kind    int
	I, J, K int
}

// Key identifies a finished tile state in the item collection.
type Key struct {
	Kind    int
	I, J, K int
}

// The task/item kinds of the Tag.Kind / Key.Kind fields.
const (
	KindPotrf = iota
	KindTrsm
	KindUpdate
)

// The recurrence is stated once, here: the schedule walk (Walk) and the
// dependency relation on tile tasks (Preds, Succs). Flow hands them to the
// shared interpreters, and internal/dag's two Cholesky graphs read them.

// Walk visits the tile tasks of a tiles×tiles factorisation in the
// right-looking schedule; last marks the final task of a stage. Phase k has
// three stages — POTRF(k); the TRSM batch of column k; the UPDATE batch of
// the trailing lower triangle — and the tasks of a stage are independent.
// The walk has this one level: there are no recursive calls.
func Walk(tiles int, visit func(t Tag, last bool)) {
	for k := 0; k < tiles; k++ {
		visit(Tag{KindPotrf, k, k, k}, true)
		for i := k + 1; i < tiles; i++ {
			visit(Tag{KindTrsm, i, k, k}, i == tiles-1)
		}
		for j := k + 1; j < tiles; j++ {
			for i := j; i < tiles; i++ {
				visit(Tag{KindUpdate, i, j, k}, j == tiles-1)
			}
		}
	}
}

// Preds visits the tasks that task t must wait for, until f returns false:
// TRSM(I,K) reads POTRF(K); UPDATE(I,J,K) reads TRSM(I,K) and TRSM(J,K) —
// one task on the diagonal; and every task overwrites what the previous
// phase's UPDATE of its tile wrote.
func Preds(_ int, t Key, f func(Key) bool) bool {
	ok := true
	switch t.Kind {
	case KindTrsm:
		ok = f(Key{KindPotrf, t.K, t.K, t.K})
	case KindUpdate:
		ok = f(Key{KindTrsm, t.I, t.K, t.K}) && (t.J == t.I || f(Key{KindTrsm, t.J, t.K, t.K}))
	}
	return ok && (t.K == 0 || f(Key{KindUpdate, t.I, t.J, t.K - 1}))
}

// Succs is the inverse of Preds on a tiles×tiles grid. Their number is the
// get-count of t's receipt: T−1−K TRSMs read POTRF(K) (the last diagonal
// frees on put); TRSM(I,K) feeds the UPDATEs of row I and, below the
// diagonal, of column I — T−K−1 in all; an UPDATE feeds exactly the
// phase-K+1 task on its tile, which always exists (J ≥ K+1).
func Succs(tiles int, t Key, f func(Key) bool) bool {
	i, k := t.I, t.K
	switch t.Kind {
	case KindPotrf:
		for x := k + 1; x < tiles; x++ {
			if !f(Key{KindTrsm, x, k, k}) {
				return false
			}
		}
	case KindTrsm:
		for x := k + 1; x < tiles; x++ {
			if x <= i && !f(Key{KindUpdate, i, x, k}) || x > i && !f(Key{KindUpdate, x, i, k}) {
				return false
			}
		}
	default:
		return f(TaskKey(i, t.J, k+1))
	}
	return true
}

// TaskKey returns the task that updates tile (i, j) in phase k ≤ j ≤ i:
// POTRF on the phase's diagonal tile, TRSM in its column, UPDATE elsewhere.
func TaskKey(i, j, k int) Key {
	switch {
	case i == k:
		return Key{KindPotrf, i, j, k}
	case j == k:
		return Key{KindTrsm, i, j, k}
	default:
		return Key{KindUpdate, i, j, k}
	}
}

// Numbering numbers the tasks (i, j, k), 0 ≤ k ≤ j ≤ i < T, phase by
// phase: phase k holds the lower triangle {(i,j): k ≤ j ≤ i < T} of
// s(s+1)/2 tasks, s = T−k, so there are T(T+1)(T+2)/6 in all.
func Numbering(t int) gep.Numbering[Key] {
	// offsets[k] is the id of the first task of phase k.
	offsets := make([]int, t+1)
	for k := 0; k < t; k++ {
		s := t - k
		offsets[k+1] = offsets[k] + s*(s+1)/2
	}
	return gep.Numbering[Key]{
		N: offsets[t],
		ID: func(x Key) int {
			a, b := x.I-x.K, x.J-x.K
			return offsets[x.K] + a*(a+1)/2 + b
		},
		Key: func(id int) Key {
			k := sort.Search(t, func(p int) bool { return offsets[p+1] > id })
			rem := id - offsets[k]
			// Largest a with a(a+1)/2 <= rem; the float guess is fixed up exactly.
			a := int((math.Sqrt(float64(8*rem+1)) - 1) / 2)
			for a*(a+1)/2 > rem {
				a--
			}
			for (a+1)*(a+2)/2 <= rem {
				a++
			}
			return TaskKey(k+a, k+rem-a*(a+1)/2, k)
		},
	}
}

// Flow states the factorisation of a for the shared interpreters
// (gep.Flow). Every tag is a base task and its own key; the walk has one
// level, so the flow is Flat and every interpreter instantiates the tasks
// stage by stage. Only POTRF can fail (a not SPD), and its error stops the
// run.
func Flow(a *matrix.Dense, base int) (*gep.Flow[Tag, Key], error) {
	if err := validate(a, base); err != nil {
		return nil, err
	}
	bs := gep.BaseSize(a.Rows(), base)
	tiles := a.Rows() / bs
	return &gep.Flow[Tag, Key]{
		Numbering: Numbering(tiles),
		Colls:     [][3]string{{"cholTask", "tasks", "tile_outputs"}},
		Task:      func(t Tag) (Key, bool) { return Key(t), true },
		Walk:      func(_ Tag, _ bool, visit func(Tag, bool)) { Walk(tiles, visit) },
		Preds:     func(k Key, f func(Key) bool) bool { return Preds(tiles, k, f) },
		Succs:     func(k Key, f func(Key) bool) bool { return Succs(tiles, k, f) },
		Kernel: func(k Key, fr *determinacy.Frame) error {
			if fr != nil {
				// A task writes its tile and reads the tiles its
				// predecessors wrote.
				w := determinacy.TileCell(k.I, k.J)
				fr.Write(w)
				Preds(tiles, k, func(p Key) bool {
					if cell := determinacy.TileCell(p.I, p.J); cell != w {
						fr.Read(cell)
					}
					return true
				})
			}
			switch k.Kind {
			case KindPotrf:
				return potrf(a, k.K, bs)
			case KindTrsm:
				trsm(a, k.I, k.K, bs)
			default:
				update(a, k.I, k.J, k.K, bs)
			}
			return nil
		},
		Flat:      true,
		TileBytes: bs * bs * 8,
	}, nil
}

// Residual returns max |(L·Lᵀ − A0)[i][j]| over the lower triangle, where
// l is a factored matrix and a0 the original — the end-to-end correctness
// measure.
func Residual(l, a0 *matrix.Dense) float64 {
	n := l.Rows()
	max := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := 0.0
			for k := 0; k <= j; k++ {
				sum += l.At(i, k) * l.At(j, k)
			}
			if d := math.Abs(sum - a0.At(i, j)); d > max {
				max = d
			}
		}
	}
	return max
}
