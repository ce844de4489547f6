// Package matrix provides the dense row-major float64 matrix used as the DP
// table by every benchmark in this repository, together with tile (sub-matrix)
// views and comparison helpers.
//
// The matrix is deliberately simple: a single contiguous backing slice with
// row-major indexing, exactly like the double* tables of the paper's C++
// benchmarks. Tiles are lightweight views; they alias the parent storage so
// the recursive divide-and-conquer functions can update quadrants in place.
//
// Table storage comes from one free list, a sync.Pool of backing arrays
// per exact length: New and Clone take from it, Release gives back.
package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
)

// Dense is a row-major n×m matrix of float64 values.
//
// The zero value is an empty matrix; use New or FromRows to create a usable
// one.
type Dense struct {
	rows, cols int
	stride     int
	data       []float64
	view       bool // the storage is another matrix's: Release leaves it alone
}

// free holds one *sync.Pool of released backing arrays per length.
var free sync.Map

// storage returns a backing array of length n: a released one when the
// free list holds one, cleared when zero is set, else a fresh one.
func storage(n int, zero bool) []float64 {
	p, ok := free.Load(n)
	if !ok {
		p, _ = free.LoadOrStore(n, new(sync.Pool))
	}
	if s, ok := p.(*sync.Pool).Get().(*[]float64); ok {
		if zero {
			clear(*s)
		}
		return *s
	}
	return make([]float64, n)
}

// New returns a zero-filled rows×cols matrix backed by one array.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	return &Dense{
		rows:   rows,
		cols:   cols,
		stride: cols,
		data:   storage(rows*cols, true),
	}
}

// Release returns the matrix's backing array to the free list and leaves
// the matrix empty. The caller must hold the only use of the storage: no
// view of it may be touched again. Release of a view or of an empty
// matrix does nothing.
func (m *Dense) Release() {
	if m.view || len(m.data) == 0 {
		return
	}
	s := m.data
	*m = Dense{}
	p, _ := free.Load(len(s)) // storage made it
	p.(*sync.Pool).Put(&s)
}

// NewSquare returns a zero-filled n×n matrix.
func NewSquare(n int) *Dense { return New(n, n) }

// FromRows builds a matrix from a slice of equal-length rows, copying the
// data.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("matrix: ragged rows: row 0 has %d cols, row %d has %d", m.cols, i, len(r)))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Stride returns the distance, in elements, between vertically adjacent
// entries of the backing storage. For a freshly allocated matrix the stride
// equals Cols; for tile views it is the stride of the root matrix.
func (m *Dense) Stride() int { return m.stride }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.stride+j] }

// Set stores v at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.stride+j] = v }

// Row returns the i-th row as a slice aliasing the matrix storage. The slice
// has length Cols.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.stride : i*m.stride+m.cols] }

// RowSeg returns the [j0, j1) segment of row i as a slice aliasing the
// matrix storage. The register-blocked kernels use it to hand the compiler
// exact-length slices: ranging over one segment and indexing the others at
// the same (re-sliced) length eliminates bounds checks from the stride-1
// inner loops.
func (m *Dense) RowSeg(i, j0, j1 int) []float64 {
	return m.data[i*m.stride+j0 : i*m.stride+j1]
}

// Data returns the backing slice when the matrix is contiguous (stride ==
// cols). It panics for non-contiguous tile views, where a flat slice would
// silently interleave out-of-tile elements.
func (m *Dense) Data() []float64 {
	if m.stride != m.cols {
		panic("matrix: Data called on non-contiguous view")
	}
	return m.data[:m.rows*m.cols]
}

// View returns the r×c sub-matrix whose top-left corner is (i, j). The view
// aliases the receiver's storage: writes through the view are visible in the
// parent and vice versa.
func (m *Dense) View(i, j, r, c int) *Dense {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.rows || j+c > m.cols {
		panic(fmt.Sprintf("matrix: view [%d:%d, %d:%d] out of %dx%d", i, i+r, j, j+c, m.rows, m.cols))
	}
	return &Dense{
		rows:   r,
		cols:   c,
		stride: m.stride,
		data:   m.data[i*m.stride+j:],
		view:   true,
	}
}

// Clone returns a deep copy with contiguous storage, skipping New's clear.
func (m *Dense) Clone() *Dense {
	c := &Dense{rows: m.rows, cols: m.cols, stride: m.cols, data: storage(m.rows*m.cols, false)}
	for i := 0; i < m.rows; i++ {
		copy(c.Row(i), m.Row(i))
	}
	return c
}

// CopyFrom copies src into the receiver. Both matrices must have identical
// shapes.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("matrix: CopyFrom shape mismatch %dx%d <- %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	for i := 0; i < m.rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// FillRandom fills the matrix with pseudo-random values in [lo, hi) drawn
// from rng.
func (m *Dense) FillRandom(rng *rand.Rand, lo, hi float64) {
	span := hi - lo
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = lo + span*rng.Float64()
		}
	}
}

// FillDiagonallyDominant fills the matrix with random values and then boosts
// the diagonal so the matrix is strictly diagonally dominant. GE without
// pivoting is numerically stable on such matrices, which is why the paper
// restricts itself to them.
func (m *Dense) FillDiagonallyDominant(rng *rand.Rand) {
	if m.rows != m.cols {
		panic("matrix: FillDiagonallyDominant needs a square matrix")
	}
	m.FillRandom(rng, 0, 1)
	for i := 0; i < m.rows; i++ {
		sum := 0.0
		row := m.Row(i)
		for j, v := range row {
			if j != i {
				sum += math.Abs(v)
			}
		}
		row[i] = sum + 1 + rng.Float64()
	}
}

// Equal reports whether the two matrices have the same shape and
// bit-identical elements: a NaN equals only the same NaN, and 0 differs
// from -0.
func Equal(a, b *Dense) bool { return Diff(a, b) == nil }

// Diff returns nil when a and b are Equal, else an error naming how they
// differ: their shapes, or the first element (in row-major order) whose
// bits differ, with both values.
func Diff(a, b *Dense) error {
	if !sameShape(a, b) {
		return fmt.Errorf("matrix: shape %dx%d, want %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	for i := 0; i < a.rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return fmt.Errorf("matrix: (%d, %d) is %v, want %v", i, j, ra[j], rb[j])
			}
		}
	}
	return nil
}

// AlmostEqual reports whether the two matrices have the same shape and all
// elements within tol of each other, using a mixed absolute/relative test so
// large GE pivoted values compare sensibly.
func AlmostEqual(a, b *Dense, tol float64) bool {
	if !sameShape(a, b) {
		return false
	}
	for i := 0; i < a.rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if !closeEnough(ra[j], rb[j], tol) {
				return false
			}
		}
	}
	return true
}

func closeEnough(x, y, tol float64) bool {
	d := math.Abs(x - y)
	if d <= tol {
		return true
	}
	scale := math.Max(math.Abs(x), math.Abs(y))
	return d <= tol*scale
}

// MaxAbsDiff returns the largest absolute element-wise difference between two
// same-shaped matrices, or +Inf when the shapes differ.
func MaxAbsDiff(a, b *Dense) float64 {
	if !sameShape(a, b) {
		return math.Inf(1)
	}
	max := 0.0
	for i := 0; i < a.rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if d := math.Abs(ra[j] - rb[j]); d > max {
				max = d
			}
		}
	}
	return max
}

func sameShape(a, b *Dense) bool { return a.rows == b.rows && a.cols == b.cols }

// String renders small matrices for debugging; large matrices are summarised.
func (m *Dense) String() string {
	const limit = 12
	if m.rows > limit || m.cols > limit {
		return fmt.Sprintf("Dense(%dx%d)", m.rows, m.cols)
	}
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%8.3f", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
