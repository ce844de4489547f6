package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dpflow/internal/matrix"
)

func randomGE(n int, seed int64) *matrix.Dense {
	m := matrix.NewSquare(n)
	m.FillDiagonallyDominant(rand.New(rand.NewSource(seed)))
	return m
}

// The branch-hoisted GE block kernel must agree with the literal guarded
// transcription of Listing 2 on every block geometry.
func TestGEMatchesGuarded(t *testing.T) {
	n := 16
	for _, b := range []int{1, 2, 4, 8, 16} {
		for k0 := 0; k0 < n; k0 += b {
			for i0 := 0; i0 < n; i0 += b {
				for j0 := 0; j0 < n; j0 += b {
					a := randomGE(n, 42)
					ref := a.Clone()
					GE(a, i0, j0, k0, b)
					GEGuarded(ref, i0, j0, k0, b)
					// Both forms apply identical FP operations in identical
					// order, so the results must match exactly.
					if !matrix.Equal(a, ref) {
						t.Fatalf("GE != GEGuarded at block i0=%d j0=%d k0=%d b=%d (maxdiff %g)",
							i0, j0, k0, b, matrix.MaxAbsDiff(a, ref))
					}
				}
			}
		}
	}
}

// Applying GE block-by-block in the correct k-i-j tile order must reproduce
// the serial elimination — this is the fundamental tiling identity that all
// parallel implementations rely on.
func TestGETiledMatchesSerial(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		for _, b := range []int{1, 2, 4} {
			if b > n {
				continue
			}
			a := randomGE(n, int64(n*100+b))
			ref := a.Clone()
			GESerial(ref)
			tiles := n / b
			for K := 0; K < tiles; K++ {
				for I := 0; I < tiles; I++ {
					for J := 0; J < tiles; J++ {
						GE(a, I*b, J*b, K*b, b)
					}
				}
			}
			if !matrix.AlmostEqual(a, ref, 1e-9) {
				t.Fatalf("tiled GE != serial GE for n=%d b=%d (maxdiff %g)",
					n, b, matrix.MaxAbsDiff(a, ref))
			}
		}
	}
}

func TestGESerialKnownSystem(t *testing.T) {
	// Eliminate a small system by hand with the strict Σ_GE update set:
	//   [2 1; 4 5] -> row1[1] -= (4/2)*1 -> [2 1; 4 3]
	// (the j == k entry keeps its pre-elimination value; see the GE doc).
	a := matrix.FromRows([][]float64{{2, 1}, {4, 5}})
	GESerial(a)
	want := matrix.FromRows([][]float64{{2, 1}, {4, 3}})
	if !matrix.AlmostEqual(a, want, 1e-12) {
		t.Fatalf("GE result:\n%v\nwant:\n%v", a, want)
	}
}

// Forward elimination on an augmented matrix followed by back substitution
// must solve the linear system: the end-to-end property GE exists for.
func TestGESolvesLinearSystem(t *testing.T) {
	const n = 17 // n-1 unknowns in an n×n augmented matrix, as in the paper
	rng := rand.New(rand.NewSource(11))
	a := matrix.NewSquare(n)
	a.FillDiagonallyDominant(rng)
	x := make([]float64, n-1)
	for i := range x {
		x[i] = -2 + 4*rng.Float64()
	}
	// Last column holds b = A·x over the leading (n-1)×(n-1) system.
	for i := 0; i < n-1; i++ {
		sum := 0.0
		for j := 0; j < n-1; j++ {
			sum += a.At(i, j) * x[j]
		}
		a.Set(i, n-1, sum)
	}
	GESerial(a)
	// Back substitution on the upper-triangularised system.
	got := make([]float64, n-1)
	for i := n - 2; i >= 0; i-- {
		sum := a.At(i, n-1)
		for j := i + 1; j < n-1; j++ {
			sum -= a.At(i, j) * got[j]
		}
		got[i] = sum / a.At(i, i)
	}
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-9 {
			t.Fatalf("solution[%d] = %v, want %v", i, got[i], x[i])
		}
	}
}

func randomDist(n int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewSquare(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				m.Set(i, j, 0)
			case rng.Float64() < 0.4:
				// Integer weights keep min-plus arithmetic exact in float64,
				// so differently ordered implementations agree bit-for-bit.
				m.Set(i, j, float64(1+rng.Intn(9)))
			default:
				m.Set(i, j, 1e6) // "infinity" for a sparse graph
			}
		}
	}
	return m
}

func TestFWSerialSmall(t *testing.T) {
	inf := 1e6
	d := matrix.FromRows([][]float64{
		{0, 3, inf},
		{inf, 0, 2},
		{7, inf, 0},
	})
	FWSerial(d)
	want := matrix.FromRows([][]float64{
		{0, 3, 5},
		{9, 0, 2},
		{7, 10, 0},
	})
	if !matrix.Equal(d, want) {
		t.Fatalf("FW result:\n%v\nwant:\n%v", d, want)
	}
}

// FW must satisfy the triangle inequality on its output and be idempotent.
func TestFWProperties(t *testing.T) {
	f := func(seed int64) bool {
		n := 12
		d := randomDist(n, seed)
		FWSerial(d)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					if d.At(i, j) > d.At(i, k)+d.At(k, j)+1e-9 {
						return false
					}
				}
			}
		}
		again := d.Clone()
		FWSerial(again)
		return matrix.Equal(d, again)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Tiled FW matches the serial loop when each K phase runs in the blocked
// order the A/B/C/D recursion induces: the diagonal tile first, then the
// pivot row and column tiles, then the remaining tiles. (A naive K-I-J tile
// sweep is NOT equivalent — tiles left of / above the pivot would read stale
// pivot rows — which is precisely why the recursion orders A before B/C
// before D.)
func TestFWTiledMatchesSerial(t *testing.T) {
	for _, n := range []int{8, 16} {
		for _, b := range []int{1, 2, 4, 8} {
			d := randomDist(n, int64(n+b))
			ref := d.Clone()
			FWSerial(ref)
			tiles := n / b
			for K := 0; K < tiles; K++ {
				FW(d, K*b, K*b, K*b, b)
				for X := 0; X < tiles; X++ {
					if X == K {
						continue
					}
					FW(d, K*b, X*b, K*b, b) // pivot row
					FW(d, X*b, K*b, K*b, b) // pivot column
				}
				for I := 0; I < tiles; I++ {
					for J := 0; J < tiles; J++ {
						if I != K && J != K {
							FW(d, I*b, J*b, K*b, b)
						}
					}
				}
			}
			if !matrix.Equal(d, ref) {
				t.Fatalf("tiled FW != serial for n=%d b=%d", n, b)
			}
		}
	}
}

func TestScoring(t *testing.T) {
	sc := Scoring{Match: 3, Mismatch: 2, Gap: 1}
	if sc.Score('A', 'A') != 3 {
		t.Fatal("match score wrong")
	}
	if sc.Score('A', 'C') != -2 {
		t.Fatal("mismatch score wrong")
	}
}

func TestSWKnownAlignment(t *testing.T) {
	// Classic example: TGTTACGG vs GGTTGACTA, match=3 mismatch=3 gap=2
	// has optimal local alignment score 13 (GTT-AC / GTTGAC).
	a := []byte("TGTTACGG")
	b := []byte("GGTTGACTA")
	sc := Scoring{Match: 3, Mismatch: 3, Gap: 2}
	h := matrix.New(len(a)+1, len(b)+1)
	got := SWSerial(h, a, b, sc)
	if got != 13 {
		t.Fatalf("SW score = %v, want 13", got)
	}
	if lin := SWLinear(a, b, sc); lin != 13 {
		t.Fatalf("SWLinear score = %v, want 13", lin)
	}
}

func TestSWIdenticalSequences(t *testing.T) {
	s := []byte("ACGTACGT")
	h := matrix.New(len(s)+1, len(s)+1)
	got := SWSerial(h, s, s, DefaultScoring)
	want := float64(len(s)) * DefaultScoring.Match
	if got != want {
		t.Fatalf("self-alignment score = %v, want %v", got, want)
	}
}

func TestSWEmptyishAndBounds(t *testing.T) {
	a, b := []byte("A"), []byte("C")
	h := matrix.New(2, 2)
	if got := SWSerial(h, a, b, DefaultScoring); got != 0 {
		t.Fatalf("mismatched single chars score = %v, want 0", got)
	}
}

func randSeq(n int, rng *rand.Rand) []byte {
	const alpha = "ACGT"
	s := make([]byte, n)
	for i := range s {
		s[i] = alpha[rng.Intn(4)]
	}
	return s
}

// Tiled SW (row-major tile order) matches the serial full-table fill, and
// the linear-space variant agrees on the max score.
func TestSWTiledMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{4, 8, 16} {
		for _, bsz := range []int{1, 2, 4} {
			a, b := randSeq(n, rng), randSeq(n, rng)
			ref := matrix.New(n+1, n+1)
			refScore := SWSerial(ref, a, b, DefaultScoring)

			h := matrix.New(n+1, n+1)
			tiles := n / bsz
			for I := 0; I < tiles; I++ {
				for J := 0; J < tiles; J++ {
					SW(h, a, b, DefaultScoring, 1+I*bsz, 1+J*bsz, bsz)
				}
			}
			if !matrix.Equal(h, ref) {
				t.Fatalf("tiled SW != serial for n=%d b=%d", n, bsz)
			}
			if lin := SWLinear(a, b, DefaultScoring); lin != refScore {
				t.Fatalf("SWLinear = %v, serial max = %v", lin, refScore)
			}
		}
	}
}

// Property: SW scores are non-negative everywhere and the max score of
// aligning s against itself is Match*len(s).
func TestSWProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		a, b := randSeq(n, rng), randSeq(n, rng)
		h := matrix.New(n+1, n+1)
		SWSerial(h, a, b, DefaultScoring)
		for i := 0; i <= n; i++ {
			for _, v := range h.Row(i) {
				if v < 0 {
					return false
				}
			}
		}
		self := matrix.New(n+1, n+1)
		return SWSerial(self, a, a, DefaultScoring) == float64(n)*DefaultScoring.Match
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxScore(t *testing.T) {
	h := matrix.New(3, 3)
	h.Set(1, 2, 4.5)
	if got := MaxScore(h); got != 4.5 {
		t.Fatalf("MaxScore = %v", got)
	}
}
