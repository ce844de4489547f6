package perfbench

import "math/rand"

// OpPlan is the generated input of one op: the instance seed of a compute
// or dist op, or — for a serve root — the order its leaves are submitted in
// and each leaf's instance seed.
type OpPlan struct {
	Seed      int64
	LeafOrder []int
	LeafSeeds []int64
}

// Plan is everything a pass derives from -seed: the programs under test
// receive only these generated inputs, never the seed itself.
type Plan struct {
	Ops []OpPlan
}

// passKind separates the seed streams of one workload's passes, so the
// traced pass does not replay the untraced pass's instances.
type passKind int64

const (
	passWarmup passKind = iota
	passUntraced
	passTraced
)

// NewPlan derives the op plan of one pass of w. The same (seed, workload,
// pass, ops) always yields the same plan.
func NewPlan(seed int64, w *Workload, kind passKind, ops int) Plan {
	var name int64
	for _, c := range w.Name {
		name = name*131 + int64(c)
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + name*31 + int64(kind)))
	p := Plan{Ops: make([]OpPlan, ops)}
	for i := range p.Ops {
		op := &p.Ops[i]
		op.Seed = rng.Int63()
		if w.IsServe() {
			op.LeafOrder = rng.Perm(len(w.Fork))
			op.LeafSeeds = make([]int64, len(w.Fork))
			for l := range op.LeafSeeds {
				op.LeafSeeds[l] = rng.Int63()
			}
		}
	}
	return p
}
