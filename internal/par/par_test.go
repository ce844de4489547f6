package par

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"dpflow/internal/core"
	"dpflow/internal/determinacy"
	"dpflow/internal/forkjoin"
	"dpflow/internal/gep"
	"dpflow/internal/matrix"
)

// serial, forkJoin and runCnC fill m with p's Flow under one interpreter
// and return the optimal cost m[1][N].
func (p *Problem) serial(m *matrix.Dense, base int) (float64, error) {
	f, err := p.Flow(m, base)
	if err == nil {
		err = f.Serial()
	}
	return m.At(1, p.N()), err
}

func (p *Problem) forkJoin(m *matrix.Dense, base int, pool *forkjoin.Pool) (float64, error) {
	f, err := p.Flow(m, base)
	if err == nil {
		err = f.ForkJoin(context.Background(), pool)
	}
	return m.At(1, p.N()), err
}

func (p *Problem) runCnC(m *matrix.Dense, base, workers int, v core.Variant) (float64, gep.CnCStats, error) {
	f, err := p.Flow(m, base)
	if err != nil {
		return 0, gep.CnCStats{}, err
	}
	stats, err := f.Run(context.Background(), "par-"+v.String(), workers, v, nil)
	return m.At(1, p.N()), stats, err
}

// The classic textbook instance: chains 30×35, 35×15, 15×5, 5×10, 10×20,
// 20×25 have optimal cost 15125 (CLRS §15.2).
func TestSerialKnownInstance(t *testing.T) {
	p := &Problem{Dims: []int{30, 35, 15, 5, 10, 20, 25}}
	m := p.NewTable()
	if got := p.Serial(m); got != 15125 {
		t.Fatalf("optimal cost = %v, want 15125", got)
	}
	// Spot-check an interior cell from the textbook table: m[2][5] = 7125.
	if got := m.At(2, 5); got != 7125 {
		t.Fatalf("m[2][5] = %v, want 7125", got)
	}
}

func TestTwoMatrices(t *testing.T) {
	p := &Problem{Dims: []int{4, 7, 3}}
	m := p.NewTable()
	if got := p.Serial(m); got != 4*7*3 {
		t.Fatalf("cost = %v, want %v", got, 4*7*3)
	}
}

func TestAllVariantsAgree(t *testing.T) {
	pool := forkjoin.NewPool(forkjoin.Config{Workers: 3})
	defer pool.Close()
	rng := rand.New(rand.NewSource(1))
	p := RandomProblem(64, 30, rng)
	ref := p.NewTable()
	want := p.Serial(ref)

	type driver struct {
		name string
		run  func(m *matrix.Dense, base int) (float64, error)
	}
	drivers := []driver{
		{"Serial_RDP", p.serial},
		{"OpenMP", func(m *matrix.Dense, base int) (float64, error) { return p.forkJoin(m, base, pool) }},
	}
	for _, v := range []core.Variant{core.NativeCnC, core.TunerCnC, core.ManualCnC, core.NonBlockingCnC} {
		drivers = append(drivers, driver{v.String(), func(m *matrix.Dense, base int) (float64, error) {
			cost, _, err := p.runCnC(m, base, 3, v)
			return cost, err
		}})
	}
	for _, d := range drivers {
		for _, base := range []int{4, 16, 64} {
			got, err := d.run(p.NewTable(), base)
			if err != nil {
				t.Fatalf("%s base=%d: %v", d.name, base, err)
			}
			if got != want {
				t.Fatalf("%s base=%d: cost %v, want %v", d.name, base, got, want)
			}
		}
	}
}

// The full tables must match, not just the corner cost.
func TestTablesMatchExactly(t *testing.T) {
	pool := forkjoin.NewPool(forkjoin.Config{Workers: 2})
	defer pool.Close()
	rng := rand.New(rand.NewSource(2))
	p := RandomProblem(32, 20, rng)
	ref := p.NewTable()
	p.Serial(ref)

	fj := p.NewTable()
	if _, err := p.forkJoin(fj, 8, pool); err != nil {
		t.Fatal(err)
	}
	df := p.NewTable()
	if _, _, err := p.runCnC(df, 8, 3, core.NativeCnC); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(fj, ref) || !matrix.Equal(df, ref) {
		t.Fatal("parallel tables differ from serial")
	}
}

// Property: for random chains, the optimum never exceeds the left-to-right
// association cost, and all variants agree.
func TestOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := RandomProblem(16, 12, rng)
		m := p.NewTable()
		opt := p.Serial(m)
		// Left-to-right association.
		ltr, rows := 0.0, p.Dims[0]
		for k := 1; k < p.N(); k++ {
			ltr += float64(rows) * float64(p.Dims[k]) * float64(p.Dims[k+1])
		}
		if opt > ltr {
			return false
		}
		got, _, err := p.runCnC(p.NewTable(), 4, 2, core.TunerCnC)
		return err == nil && got == opt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	ok := &Problem{Dims: []int{3, 4, 5}} // n=2
	if _, err := ok.serial(ok.NewTable(), 2); err != nil {
		t.Fatalf("n=2 rejected: %v", err)
	}
	odd := &Problem{Dims: []int{1, 2, 3, 4}} // n=3, not a power of two
	if _, err := odd.Flow(odd.NewTable(), 2); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	p := &Problem{Dims: []int{1, 2, 3, 4, 5}}
	if _, err := p.Flow(p.NewTable(), 0); err == nil {
		t.Fatal("base 0 accepted")
	}
}

// The tuned variants declare high-fan-in dependency lists (up to 2·(J−I));
// they must never abort and the task census must be the triangular tile
// count.
func TestHighFanInDeps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := RandomProblem(64, 15, rng)
	m := p.NewTable()
	_, stats, err := p.runCnC(m, 8, 4, core.ManualCnC)
	if err != nil {
		t.Fatal(err)
	}
	tiles := 8 // 64/8
	if want := tiles * (tiles + 1) / 2; stats.BaseTasks != want {
		t.Fatalf("BaseTasks = %d, want %d", stats.BaseTasks, want)
	}
	if stats.Aborts != 0 {
		t.Fatalf("manual variant aborted %d times", stats.Aborts)
	}
}

// TestForkJoinDeclaresBandReads runs par's Flow under race-checked fork-join
// twice. As stated, every tile declares its write and its band reads and the
// barrier between anti-diagonals orders each read after its write: no race,
// and the detector saw the declarations. With the barriers removed — the
// walk keeps its order but marks only its final tile as ending a stage, so
// the whole grid is one spawned stage — some tile reads a band tile no join
// orders it after, and the detector must name that pair of tile tasks.
func TestForkJoinDeclaresBandReads(t *testing.T) {
	p := RandomProblem(64, 20, rand.New(rand.NewSource(4)))
	for _, barriers := range []bool{true, false} {
		pool := forkjoin.NewPool(forkjoin.Config{Workers: 4, Seed: 1})
		d := determinacy.NewDetector()
		pool.WithRaceDetection(d)
		f, err := p.Flow(p.NewTable(), 8)
		if err != nil {
			t.Fatal(err)
		}
		if !barriers {
			walk, tiles := f.Walk, 0
			walk(f.Root, true, func(Tile, bool) { tiles++ })
			f.Walk = func(t Tile, flat bool, visit func(Tile, bool)) {
				i := 0
				walk(t, flat, func(sub Tile, _ bool) { i++; visit(sub, i == tiles) })
			}
			// The kernels take turns, so the seeded race exists only at the
			// declared-shadow level: the suite runs under -race, and a real
			// memory race would fail the run before the detector could
			// report it.
			var mu sync.Mutex
			kernel := f.Kernel
			f.Kernel = func(k Tile, fr *determinacy.Frame) error {
				mu.Lock()
				defer mu.Unlock()
				return kernel(k, fr)
			}
		}
		err = f.ForkJoin(context.Background(), pool)
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st := d.Stats(); st.Accesses == 0 {
			t.Fatalf("barriers=%v: the detector saw no accesses — par's kernel declares nothing", barriers)
		}
		if barriers {
			if err := d.Err(); err != nil {
				t.Fatalf("race reported on the correct schedule: %v", err)
			}
			continue
		}
		var re *determinacy.RaceError
		if !errors.As(d.Err(), &re) {
			t.Fatalf("barrier-free walk: Err() = %v, want a *RaceError", d.Err())
		}
		if re.FirstTask == re.SecondTask || !strings.HasPrefix(re.Cell, "tile(") {
			t.Fatalf("barrier-free walk: race does not name two tile tasks and a tile: %v", re)
		}
	}
}
