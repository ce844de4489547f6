// Quickstart: the smallest complete CnC program — the graph of the paper's
// Listing 1 — plus a first taste of both execution models on a toy
// Gaussian elimination.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/forkjoin"
	"dpflow/internal/gep"
	"dpflow/internal/kernels"
	"dpflow/internal/matrix"
)

func main() {
	listing1()
	bothModels()
}

// listing1 builds the paper's Listing 1 specification: a tag collection
// myCtrl prescribing a step collection myStep, which consumes and produces
// items of myData and puts further control tags.
func listing1() {
	g := cnc.NewGraph("listing1", 2)
	myData := cnc.NewItemCollection[int, string](g, "myData")
	myCtrl := cnc.NewTagCollection[int](g, "myCtrl", false)
	myStep := cnc.NewStepCollection(g, "myStep", func(i int) error {
		v := myData.Get(i) // blocking get: the CnC synchronisation primitive
		myData.Put(i+1, v+"*")
		if i < 4 {
			myCtrl.Put(i + 1)
		}
		return nil
	})
	myStep.Consumes(myData).Produces(myData)
	myCtrl.Prescribe(myStep)

	fmt.Print(g.Describe())
	if err := g.Run(func() {
		myData.Put(0, "seed")
		myCtrl.Put(0)
	}); err != nil {
		log.Fatal(err)
	}
	v, _ := myData.TryGet(5)
	fmt.Printf("after 5 steps: myData[5] = %q\n\n", v)
}

// bothModels runs the same 64×64 Gaussian elimination through the fork-join
// runtime (the paper's OpenMP side) and the CnC data-flow runtime (the
// paper's Intel CnC side) and checks they agree bit-for-bit.
func bothModels() {
	rng := rand.New(rand.NewSource(42))
	a := matrix.NewSquare(64)
	a.FillDiagonallyDominant(rng)

	serial := a.Clone()
	kernels.GESerial(serial)

	// The recurrence is one value, a gep.Flow over the matrix it updates;
	// each execution model is one of its methods.
	fj := a.Clone()
	pool := forkjoin.NewPool(forkjoin.Config{Workers: 4})
	defer pool.Close()
	f, err := gep.GE.Flow(fj, 8)
	if err == nil {
		err = f.ForkJoin(context.Background(), pool)
	}
	if err != nil {
		log.Fatal(err)
	}

	df := a.Clone()
	f, err = gep.GE.Flow(df, 8)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := f.Run(context.Background(), "ge", 4, core.NativeCnC, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fork-join matches serial:  %v\n", matrix.Equal(fj, serial))
	fmt.Printf("data-flow matches serial:  %v\n", matrix.Equal(df, serial))
	fmt.Printf("CnC activity: %d base tasks, %d tags, %d items, %d aborted gets\n",
		stats.BaseTasks, stats.TagsPut, stats.ItemsPut, stats.Aborts)
}
