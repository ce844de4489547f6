package sw

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"dpflow/internal/core"
	"dpflow/internal/forkjoin"
	"dpflow/internal/gep"
	"dpflow/internal/kernels"
	"dpflow/internal/matrix"
	"dpflow/internal/seq"
)

func problem(n int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	a := seq.RandomDNA(n, rng)
	b := seq.Mutate(a, 0.3, seq.DNAAlphabet, rng)
	return &Problem{A: a, B: b, Scoring: kernels.DefaultScoring}
}

// serial, forkJoin and runCnC fill h with p's Flow under one interpreter and
// return the score.
func (p *Problem) serial(h *matrix.Dense, base int) (float64, error) {
	f, err := p.Flow(h, base)
	if err == nil {
		err = f.Serial()
	}
	return kernels.MaxScore(h), err
}

func (p *Problem) forkJoin(h *matrix.Dense, base int, pool *forkjoin.Pool) (float64, error) {
	f, err := p.Flow(h, base)
	if err == nil {
		err = f.ForkJoin(context.Background(), pool)
	}
	return kernels.MaxScore(h), err
}

func (p *Problem) runCnC(h *matrix.Dense, base, workers int, v core.Variant) (float64, gep.CnCStats, error) {
	f, err := p.Flow(h, base)
	if err != nil {
		return 0, gep.CnCStats{}, err
	}
	stats, err := f.Run(context.Background(), "sw-"+v.String(), workers, v, nil)
	return kernels.MaxScore(h), stats, err
}

// The linear-space scorer must agree with the full-table serial fill.
func TestLinearMatchesSerialScore(t *testing.T) {
	p := problem(64, 1)
	ref := p.NewTable()
	wantScore := p.Serial(ref)
	if got := p.Linear(); got != wantScore {
		t.Fatalf("linear-space score %v != full-table score %v", got, wantScore)
	}
}

// Every interpreter of the recurrence — serial, the recursive fork-join and
// the four CnC schedules — must reproduce the loop-based Serial fill
// exactly: same score, bit-identical table. Serial is the independent oracle
// here; the registry's Instance.Verify compares against Flow.Serial, one of
// the interpreters under test.
func TestDriversMatchSerialLoop(t *testing.T) {
	pool := forkjoin.NewPool(forkjoin.Config{Workers: 3})
	defer pool.Close()
	p := problem(64, 2)
	ref := p.NewTable()
	want := p.Serial(ref)
	check := func(name string, run func(h *matrix.Dense, base int) (float64, error)) {
		t.Helper()
		for _, base := range []int{4, 16, 64} {
			h := p.NewTable()
			got, err := run(h, base)
			if err != nil {
				t.Fatalf("%s base=%d: %v", name, base, err)
			}
			if got != want {
				t.Fatalf("%s base=%d: score %v, want %v", name, base, got, want)
			}
			if !matrix.Equal(h, ref) {
				t.Fatalf("%s base=%d: table differs from the serial loop", name, base)
			}
		}
	}
	check("Serial_RDP", p.serial)
	check("OpenMP", func(h *matrix.Dense, base int) (float64, error) { return p.forkJoin(h, base, pool) })
	for _, v := range []core.Variant{core.NativeCnC, core.TunerCnC, core.ManualCnC, core.NonBlockingCnC} {
		check(v.String(), func(h *matrix.Dense, base int) (float64, error) {
			score, _, err := p.runCnC(h, base, 3, v)
			return score, err
		})
	}
}

func TestValidation(t *testing.T) {
	p := problem(32, 3)
	if _, err := p.Flow(matrix.New(3, 3), 4); err == nil {
		t.Error("wrong table size accepted")
	}
	if _, err := p.Flow(p.NewTable(), 0); err == nil {
		t.Error("base 0 accepted")
	}
	bad := &Problem{A: []byte("ACGTACG"), B: []byte("ACGTACG"), Scoring: kernels.DefaultScoring}
	if _, err := bad.Flow(matrix.New(8, 8), 4); err == nil {
		t.Error("non-power-of-two length accepted")
	}
	uneven := &Problem{A: []byte("ACGT"), B: []byte("AC"), Scoring: kernels.DefaultScoring}
	if _, err := uneven.Flow(matrix.New(5, 5), 4); err == nil {
		t.Error("unequal lengths accepted")
	}
}

// Property: for random sequences and base sizes, the data-flow score equals
// the linear-space reference and never drops below the self-alignment lower
// bound on identical prefixes.
func TestCnCScoreProperty(t *testing.T) {
	f := func(seed int64, baseExp uint8) bool {
		p := problem(32, seed)
		base := 1 << (baseExp % 6) // 1..32
		h := p.NewTable()
		got, _, err := p.runCnC(h, base, 2, core.NativeCnC)
		if err != nil {
			return false
		}
		return got == p.Linear()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// The wavefront structure: base tasks count must be exactly (n/bs)².
func TestBaseTaskCensus(t *testing.T) {
	p := problem(64, 4)
	h := p.NewTable()
	_, stats, err := p.runCnC(h, 8, 2, core.ManualCnC)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BaseTasks != 64 {
		t.Fatalf("BaseTasks = %d, want 64", stats.BaseTasks)
	}
	if stats.Aborts != 0 {
		t.Fatalf("manual variant aborted %d times", stats.Aborts)
	}
}

func TestIdenticalSequencesScore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := seq.RandomDNA(64, rng)
	p := &Problem{A: a, B: append([]byte(nil), a...), Scoring: kernels.DefaultScoring}
	h := p.NewTable()
	score, _, err := p.runCnC(h, 16, 2, core.TunerCnC)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(64) * kernels.DefaultScoring.Match; score != want {
		t.Fatalf("self-alignment score %v, want %v", score, want)
	}
}
