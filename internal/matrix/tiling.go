package matrix

import "fmt"

// NextPow2 returns the smallest power of two that is >= n (and >= 1).
func NextPow2(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// PadPow2 returns a square matrix whose side is the next power of two >=
// m's side, with m copied into the top-left corner and pad elsewhere. When
// the side is already a power of two the matrix is still copied, so callers
// may mutate the result freely.
func PadPow2(m *Dense, pad float64) *Dense {
	if m.rows != m.cols {
		panic(fmt.Sprintf("matrix: PadPow2 of non-square %dx%d", m.rows, m.cols))
	}
	n := NextPow2(m.rows)
	out := NewSquare(n)
	if pad != 0 {
		out.Fill(pad)
	}
	out.View(0, 0, m.rows, m.cols).CopyFrom(m)
	return out
}
