package gep_test

import (
	"context"
	"fmt"
	"math/rand"

	"dpflow/internal/core"
	"dpflow/internal/gep"
	"dpflow/internal/kernels"
	"dpflow/internal/matrix"
)

// An Algorithm couples a base-case kernel with an update-set shape; its Flow
// over a matrix is the recurrence, which then runs serially, under
// fork-join, or as a CnC data-flow program. Here: Gaussian elimination as a
// data-flow program, checked against the serial loop.
func ExampleAlgorithm() {
	alg := gep.Algorithm{Kernel: kernels.GE, Shape: gep.Triangular}

	x := matrix.NewSquare(32)
	x.FillDiagonallyDominant(rand.New(rand.NewSource(1)))
	ref := x.Clone()
	kernels.GESerial(ref)

	f, err := alg.Flow(x, 8)
	if err != nil {
		fmt.Println(err)
		return
	}
	stats, err := f.Run(context.Background(), "ge", 4, core.NativeCnC, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("matches serial:", matrix.Equal(x, ref))
	fmt.Println("base tasks:", stats.BaseTasks)
	// Output:
	// matches serial: true
	// base tasks: 30
}
