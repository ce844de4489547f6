package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	m := New(3, 5)
	if m.Rows() != 3 || m.Cols() != 5 || m.Stride() != 5 {
		t.Fatalf("got %dx%d stride %d", m.Rows(), m.Cols(), m.Stride())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("fresh matrix not zero at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dims")
		}
	}()
	New(-1, 2)
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(4, 4)
	m.Set(2, 3, 7.5)
	if got := m.At(2, 3); got != 7.5 {
		t.Fatalf("At(2,3) = %v, want 7.5", got)
	}
	if got := m.Row(2)[3]; got != 7.5 {
		t.Fatalf("Row(2)[3] = %v, want 7.5", got)
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows wrong content: %v", m)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("empty FromRows got %dx%d", m.Rows(), m.Cols())
	}
}

func TestViewAliasing(t *testing.T) {
	m := New(4, 4)
	v := m.View(1, 1, 2, 2)
	v.Set(0, 0, 9)
	if m.At(1, 1) != 9 {
		t.Fatal("write through view not visible in parent")
	}
	m.Set(2, 2, 5)
	if v.At(1, 1) != 5 {
		t.Fatal("write through parent not visible in view")
	}
	if v.Stride() != m.Stride() {
		t.Fatalf("view stride %d != parent stride %d", v.Stride(), m.Stride())
	}
}

func TestViewOutOfBoundsPanics(t *testing.T) {
	m := New(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-bounds view")
		}
	}()
	m.View(2, 2, 3, 3)
}

func TestDataContiguous(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 4)
	d := m.Data()
	if len(d) != 6 || d[5] != 4 {
		t.Fatalf("Data = %v", d)
	}
}

func TestDataOnViewPanics(t *testing.T) {
	m := New(4, 4)
	v := m.View(0, 0, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic calling Data on a view")
		}
	}()
	v.Data()
}

func TestCloneIndependent(t *testing.T) {
	m := New(3, 3)
	m.Set(1, 1, 2)
	c := m.Clone()
	c.Set(1, 1, 8)
	if m.At(1, 1) != 2 {
		t.Fatal("Clone shares storage with original")
	}
	if !Equal(m.Clone(), m) {
		t.Fatal("Clone not equal to original")
	}
}

func TestCloneOfView(t *testing.T) {
	m := New(4, 4)
	m.Set(1, 2, 3)
	c := m.View(1, 1, 2, 2).Clone()
	if c.Stride() != c.Cols() {
		t.Fatal("clone of view should be contiguous")
	}
	if c.At(0, 1) != 3 {
		t.Fatalf("clone content wrong: %v", c)
	}
}

func TestCopyFromShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).CopyFrom(New(3, 3))
}

func TestFillAndEqual(t *testing.T) {
	a, b := New(3, 3), New(3, 3)
	a.Fill(1.5)
	b.Fill(1.5)
	if !Equal(a, b) {
		t.Fatal("filled matrices should be equal")
	}
	b.Set(2, 2, 1.5000001)
	if Equal(a, b) {
		t.Fatal("Equal should detect difference")
	}
	if !AlmostEqual(a, b, 1e-5) {
		t.Fatal("AlmostEqual should tolerate 1e-7 difference")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if Equal(New(2, 3), New(3, 2)) {
		t.Fatal("different shapes must not be Equal")
	}
	if !math.IsInf(MaxAbsDiff(New(2, 3), New(3, 2)), 1) {
		t.Fatal("MaxAbsDiff of mismatched shapes should be +Inf")
	}
}

// TestEqualIsBitwise: a NaN or an Inf where the reference holds 5 is a
// difference — MaxAbsDiff, NaN-blind, reports 0 for the NaN — and Diff names
// the first differing element with both values.
func TestEqualIsBitwise(t *testing.T) {
	ref := New(2, 3)
	ref.Fill(5)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		got := ref.Clone()
		got.Set(1, 2, bad)
		if Equal(got, ref) {
			t.Fatalf("%v where the reference holds 5 passed Equal", bad)
		}
		want := fmt.Sprintf("(1, 2) is %v, want 5", bad)
		if err := Diff(got, ref); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Diff = %v, want it to name %q", err, want)
		}
	}
	same := ref.Clone()
	if !Equal(same, ref) || Diff(same, ref) != nil {
		t.Fatalf("equal matrices: Equal %v, Diff %v", Equal(same, ref), Diff(same, ref))
	}
	same.Set(0, 0, math.NaN())
	if !Equal(same, same.Clone()) {
		t.Fatal("a NaN must equal the same NaN bit for bit")
	}
	if err := Diff(New(2, 3), New(3, 2)); err == nil || !strings.Contains(err.Error(), "shape 2x3, want 3x2") {
		t.Fatalf("shape mismatch: Diff = %v", err)
	}
}

func TestAlmostEqualRelative(t *testing.T) {
	a, b := New(1, 1), New(1, 1)
	a.Set(0, 0, 1e12)
	b.Set(0, 0, 1e12*(1+1e-10))
	if !AlmostEqual(a, b, 1e-9) {
		t.Fatal("relative comparison should accept tiny relative error on large values")
	}
	b.Set(0, 0, 1e12*1.01)
	if AlmostEqual(a, b, 1e-9) {
		t.Fatal("1% relative error should be rejected at tol 1e-9")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a, b := New(2, 2), New(2, 2)
	b.Set(1, 0, -3)
	if d := MaxAbsDiff(a, b); d != 3 {
		t.Fatalf("MaxAbsDiff = %v, want 3", d)
	}
}

func TestFillDiagonallyDominant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewSquare(16)
	m.FillDiagonallyDominant(rng)
	for i := 0; i < 16; i++ {
		sum := 0.0
		for j := 0; j < 16; j++ {
			if j != i {
				sum += math.Abs(m.At(i, j))
			}
		}
		if m.At(i, i) <= sum {
			t.Fatalf("row %d not diagonally dominant: diag %v vs off-diag sum %v", i, m.At(i, i), sum)
		}
	}
}

func TestFillRandomRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := New(8, 8)
	m.FillRandom(rng, 2, 5)
	for i := 0; i < 8; i++ {
		for _, v := range m.Row(i) {
			if v < 2 || v >= 5 {
				t.Fatalf("value %v outside [2,5)", v)
			}
		}
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromRows([][]float64{{1}})
	if !strings.Contains(small.String(), "1.000") {
		t.Fatalf("small String: %q", small.String())
	}
	big := New(100, 100)
	if got := big.String(); got != "Dense(100x100)" {
		t.Fatalf("large String: %q", got)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 64, 1 << 20} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 100} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestPadPow2(t *testing.T) {
	m := NewSquare(3)
	m.Fill(2)
	p := PadPow2(m, -1)
	if p.Rows() != 4 {
		t.Fatalf("padded side = %d, want 4", p.Rows())
	}
	if p.At(1, 1) != 2 || p.At(3, 3) != -1 || p.At(0, 3) != -1 {
		t.Fatalf("padding content wrong:\n%v", p)
	}
	// Already a power of two: result is a copy, not an alias.
	q := PadPow2(p, 0)
	q.Set(0, 0, 99)
	if p.At(0, 0) == 99 {
		t.Fatal("PadPow2 aliased its input")
	}
}

// Property: the b×b tile views of a matrix never overlap — writing
// distinct sentinel values through every tile view reproduces a consistent
// full matrix.
func TestTileViewsPartitionProperty(t *testing.T) {
	f := func(baseExp, nExp uint8) bool {
		b := 1 << (baseExp % 3)    // 1,2,4
		tiles := 1 << (nExp%3 + 1) // 2..8
		n := b * tiles
		m := NewSquare(n)
		for i := 0; i < tiles; i++ {
			for j := 0; j < tiles; j++ {
				m.View(i*b, j*b, b, b).Fill(float64(i*tiles + j))
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := float64((i/b)*tiles + j/b)
				if m.At(i, j) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
