// Package ge holds the linear-system utilities around Gaussian Elimination
// without pivoting (the paper's running example, §III; the algorithm itself
// is gep.GE): a generator of solvable augmented systems and the back
// substitution that reads the unknowns off an eliminated one.
//
// GE without pivoting is numerically meaningful for symmetric positive-
// definite or diagonally dominant matrices; the generator here produces the
// latter. Following the paper's convention, a system of n-1 equations in
// n-1 unknowns is represented as an n×n matrix whose last column is the
// right-hand side.
package ge

import (
	"fmt"
	"math/rand"

	"dpflow/internal/matrix"
)

// NewSystem builds a random diagonally dominant n×n augmented system whose
// last column is A·x for a random solution x, and returns the matrix and
// the exact solution (of length n-1).
func NewSystem(n int, rng *rand.Rand) (*matrix.Dense, []float64) {
	a := matrix.NewSquare(n)
	a.FillDiagonallyDominant(rng)
	x := make([]float64, n-1)
	for i := range x {
		x[i] = -1 + 2*rng.Float64()
	}
	for i := 0; i < n-1; i++ {
		sum := 0.0
		for j := 0; j < n-1; j++ {
			sum += a.At(i, j) * x[j]
		}
		a.Set(i, n-1, sum)
	}
	return a, x
}

// BackSubstitute solves the upper-triangularised augmented system produced
// by any of the GE drivers, returning the n-1 unknowns.
func BackSubstitute(a *matrix.Dense) ([]float64, error) {
	n := a.Rows()
	if n < 2 || n != a.Cols() {
		return nil, fmt.Errorf("ge: augmented system must be square with n >= 2, got %dx%d", n, a.Cols())
	}
	x := make([]float64, n-1)
	for i := n - 2; i >= 0; i-- {
		sum := a.At(i, n-1)
		for j := i + 1; j < n-1; j++ {
			sum -= a.At(i, j) * x[j]
		}
		p := a.At(i, i)
		if p == 0 {
			return nil, fmt.Errorf("ge: zero pivot at row %d (matrix not diagonally dominant?)", i)
		}
		x[i] = sum / p
	}
	return x, nil
}
