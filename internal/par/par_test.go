package par

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dpflow/internal/core"
	"dpflow/internal/forkjoin"
	"dpflow/internal/matrix"
)

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
		{"Serial_RDP", p.RDPSerial},
		{"OpenMP", func(m *matrix.Dense, base int) (float64, error) { return p.ForkJoin(m, base, pool) }},
	}
	for _, v := range []core.Variant{core.NativeCnC, core.TunerCnC, core.ManualCnC, core.NonBlockingCnC} {
		drivers = append(drivers, driver{v.String(), func(m *matrix.Dense, base int) (float64, error) {
			cost, _, err := p.RunCnC(m, base, 3, v)
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
	if _, err := p.ForkJoin(fj, 8, pool); err != nil {
		t.Fatal(err)
	}
	df := p.NewTable()
	if _, _, err := p.RunCnC(df, 8, 3, core.NativeCnC); err != nil {
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
		got, _, err := p.RunCnC(p.NewTable(), 4, 2, core.TunerCnC)
		return err == nil && got == opt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	ok := &Problem{Dims: []int{3, 4, 5}} // n=2
	if _, err := ok.RDPSerial(ok.NewTable(), 2); err != nil {
		t.Fatalf("n=2 rejected: %v", err)
	}
	odd := &Problem{Dims: []int{1, 2, 3, 4}} // n=3, not a power of two
	if _, err := odd.RDPSerial(odd.NewTable(), 2); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	p := &Problem{Dims: []int{1, 2, 3, 4, 5}}
	if _, err := p.RDPSerial(p.NewTable(), 0); err == nil {
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
	_, stats, err := p.RunCnC(m, 8, 4, core.ManualCnC)
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
