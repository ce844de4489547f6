package gep_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpflow/internal/chol"
	"dpflow/internal/determinacy"
	"dpflow/internal/forkjoin"
	"dpflow/internal/gep"
	"dpflow/internal/kernels"
	"dpflow/internal/matrix"
	"dpflow/internal/par"
	"dpflow/internal/seq"
	"dpflow/internal/sw"
)

// The tests of this file hold the shared serial and fork-join interpreters
// to their contract over all four recurrences that use them.

// fixture is one recurrence at n = 64, base 4 (16 tiles a side).
type fixture struct {
	name string
	// fresh builds a new problem and returns its Flow's serial and
	// fork-join runs and the check of the result against a serial
	// reference. A non-nil stub replaces the kernel; it is told whether the
	// task is the fixture's victim, a task inside a stage of several calls.
	fresh func(stub func(victim bool) error) (serial func() error, forkJoin func(context.Context, *forkjoin.Pool) error, check func() error)
}

func newFixture[T, K comparable](name string, victim K, build func() (*gep.Flow[T, K], func() error)) fixture {
	return fixture{name, func(stub func(bool) error) (func() error, func(context.Context, *forkjoin.Pool) error, func() error) {
		f, check := build()
		if stub != nil {
			f.Kernel = func(k K, _ *determinacy.Frame) error { return stub(k == victim) }
		}
		return f.Serial, f.ForkJoin, check
	}}
}

func equal(name string, got, want *matrix.Dense) func() error {
	return func() error {
		if !matrix.Equal(got, want) {
			return errors.New(name + ": result differs from the serial reference")
		}
		return nil
	}
}

func must[F any](f F, err error) F {
	if err != nil {
		panic(err)
	}
	return f
}

func fixtures() []fixture {
	const n, base = 64, 4
	rng := rand.New(rand.NewSource(1))
	return []fixture{
		newFixture("ge", gep.ItemKey{I: 0, J: 1, K: 0}, func() (*gep.Flow[gep.Tag, gep.ItemKey], func() error) {
			x := matrix.NewSquare(n)
			x.FillDiagonallyDominant(rng)
			ref := x.Clone()
			kernels.GESerial(ref)
			return must(gep.GE.Flow(x, base)), equal("ge", x, ref)
		}),
		newFixture("sw", sw.TileKey{I: 0, J: 1}, func() (*gep.Flow[sw.TileTag, sw.TileKey], func() error) {
			a := seq.RandomDNA(n, rng)
			p := &sw.Problem{A: a, B: seq.Mutate(a, 0.3, seq.DNAAlphabet, rng), Scoring: kernels.DefaultScoring}
			h, ref := p.NewTable(), p.NewTable()
			p.Serial(ref)
			return must(p.Flow(h, base)), equal("sw", h, ref)
		}),
		newFixture("chol", chol.Key{Kind: chol.KindTrsm, I: 1}, func() (*gep.Flow[chol.Tag, chol.Key], func() error) {
			a := chol.NewSPD(n, rng)
			ref := a.Clone()
			if err := must(chol.Flow(ref, base)).Serial(); err != nil {
				panic(err)
			}
			return must(chol.Flow(a, base)), equal("chol", a, ref)
		}),
		newFixture("par", par.Tile{}, func() (*gep.Flow[par.Tile, par.Tile], func() error) {
			p := par.RandomProblem(n, 30, rng)
			m, ref := p.NewTable(), p.NewTable()
			p.Serial(ref)
			return must(p.Flow(m, base)), equal("par", m, ref)
		}),
	}
}

// checkPoolStillWorks runs a fresh problem on p, which just lived through a
// cancelled or panicking run, and checks the result.
func checkPoolStillWorks(t *testing.T, fx fixture, p *forkjoin.Pool) {
	t.Helper()
	_, forkJoin, check := fx.fresh(nil)
	if err := forkJoin(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if err := check(); err != nil {
		t.Fatalf("after the interrupted run: %v", err)
	}
}

// TestForkJoinCancellation: a cancelled ctx unwinds the walk, ForkJoin
// returns context.Canceled, and the pool — left with skipped children in its
// deques — runs the next job correctly.
func TestForkJoinCancellation(t *testing.T) {
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			pool := forkjoin.NewPool(forkjoin.Config{Workers: 3})
			defer pool.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			started := make(chan struct{})
			var once sync.Once
			// Every kernel holds its worker until the run is cancelled, so the
			// walk cannot finish first; afterwards each still takes a
			// millisecond, so the tiles left cannot finish before the pool has
			// noticed the cancellation either (it checks at spawns and
			// taskwaits).
			_, forkJoin, _ := fx.fresh(func(bool) error {
				once.Do(func() { close(started) })
				<-ctx.Done()
				time.Sleep(time.Millisecond)
				return nil
			})
			errCh := make(chan error, 1)
			go func() { errCh <- forkJoin(ctx, pool) }()
			<-started
			cancel()
			select {
			case err := <-errCh:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("ForkJoin = %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled ForkJoin did not return")
			}
			checkPoolStillWorks(t, fx, pool)
		})
	}
}

// TestForkJoinChildPanic: a kernel panicking in a spawned task reaches the
// caller of ForkJoin as the pool's *forkjoin.ChildPanicError carrying the
// original value — it is not mistaken for a kernel error — and the pool
// runs the next job correctly.
func TestForkJoinChildPanic(t *testing.T) {
	type boom struct{ name string }
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			pool := forkjoin.NewPool(forkjoin.Config{Workers: 3})
			defer pool.Close()
			_, forkJoin, _ := fx.fresh(func(victim bool) error {
				if victim {
					panic(boom{fx.name})
				}
				return nil
			})
			func() {
				defer func() {
					cpe, ok := recover().(*forkjoin.ChildPanicError)
					if !ok || cpe.Value != (boom{fx.name}) {
						t.Fatalf("ForkJoin panicked with %v, want a ChildPanicError carrying the kernel's value", cpe)
					}
				}()
				_ = forkJoin(context.Background(), pool)
			}()
			checkPoolStillWorks(t, fx, pool)
		})
	}
}

// TestInterpretersStopAtKernelError: a kernel error stops the walk — later
// stages never run — and Serial and ForkJoin return it unwrapped.
func TestInterpretersStopAtKernelError(t *testing.T) {
	errStop := errors.New("stop")
	pool := forkjoin.NewPool(forkjoin.Config{Workers: 3})
	defer pool.Close()
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			var calls atomic.Int64
			count := func(bool) error { calls.Add(1); return nil }
			serial, _, _ := fx.fresh(count)
			if err := serial(); err != nil {
				t.Fatal(err)
			}
			total := calls.Load()
			for _, model := range []string{"serial", "fork-join"} {
				calls.Store(0)
				serial, forkJoin, _ := fx.fresh(func(victim bool) error {
					calls.Add(1)
					if victim {
						return errStop
					}
					return nil
				})
				err := serial()
				if model == "fork-join" {
					err = forkJoin(context.Background(), pool)
				}
				if err != errStop {
					t.Fatalf("%s returned %v, want the kernel's error", model, err)
				}
				if n := calls.Load(); n >= total {
					t.Fatalf("%s ran %d of %d kernels: the walk did not stop", model, n, total)
				}
			}
		})
	}
}
