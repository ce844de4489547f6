package perfbench

import (
	"context"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/exec"
	"dpflow/internal/forkjoin"
)

// warmupOps are run, untimed and on their own fixture, before a pass.
const warmupOps = 3

// computeFixture is what a compute round sets up and tears down: one
// dedicated executor and, for the fork-join variant, its pool.
type computeFixture struct {
	ex   *exec.Executor
	pool *forkjoin.Pool
}

func newComputeFixture(w *Workload, workers int, seed int64) *computeFixture {
	fx := &computeFixture{ex: exec.New(workers)}
	if w.Variant == core.OMPTasking {
		fx.pool = forkjoin.NewPool(forkjoin.Config{Workers: workers, Seed: seed, Executor: fx.ex})
	}
	return fx
}

func (fx *computeFixture) close() {
	if fx.pool != nil {
		fx.pool.Close()
	}
	fx.ex.Close()
}

// roundOf spreads reps over Rounds contiguous blocks.
func roundOf(i, reps int) int {
	per := (reps + Rounds - 1) / Rounds
	return i / per
}

// runCompute measures one pass of a single-process workload: per round a
// fresh fixture, per rep a subject op then its Serial_RDP reference on a
// fresh instance of the same seed (A B A B …, so drift cancels in
// overhead_x). rec == nil is the untraced pass.
func runCompute(ctx context.Context, w *Workload, workers int, seed int64, reps int, rec *Recorder) *pass {
	p := &pass{w: w, workers: workers, rec: rec}
	b := mustBench(w.Bench)
	geo := geometryOf(b, w.N, w.Base)

	warm := NewPlan(seed, w, passWarmup, warmupOps)
	fx := newComputeFixture(w, workers, seed)
	scratch := &pass{w: w, workers: workers}
	for i := range warm.Ops {
		computeOp(ctx, scratch, b, geo, fx, warm.Ops[i], i, 0)
	}
	fx.close()

	var cur liveExecutor
	plan := p.plan(seed, reps)
	p.measured(cur.leases, func() {
		for i := 0; i < reps; {
			round := roundOf(i, reps)
			roundStart := time.Now()
			var windows time.Duration
			fx := newComputeFixture(w, workers, seed)
			cur.Store(fx.ex)
			for ; i < reps && roundOf(i, reps) == round; i++ {
				s := computeOp(ctx, p, b, geo, fx, plan.Ops[i], i, round)
				windows += s.wall + s.ref
				p.samples = append(p.samples, s)
			}
			cur.Store(nil)
			fx.close()
			p.roundSetup = append(p.roundSetup, time.Since(roundStart)-windows)
		}
	})
	return p
}

// computeOp runs one rep and returns its sample; failures are recorded on
// p. A context that is already done (the workload deadline) fails the rep
// without running it, so a hang costs one op's time, not the run's.
func computeOp(ctx context.Context, p *pass, b bench.Benchmark, geo geometry, fx *computeFixture, op OpPlan, id, round int) sample {
	s := sample{round: round}
	w := p.w
	if err := ctx.Err(); err != nil {
		p.failf(&s, "%s op %d: %v", w.Name, id, err)
		return s
	}
	// span opens a child span of the op; the func it returns closes it and
	// gives its index (-1 in the untraced pass).
	span := func(name string) func() int { return func() int { return -1 } }
	if p.rec != nil {
		root := p.rec.Begin(w.Name, id, -1, 0)
		defer p.rec.End(root)
		span = func(name string) func() int {
			i := p.rec.Begin(name, id, root, 0)
			return func() int { p.rec.End(i); return i }
		}
	}

	end := span("bench.setup")
	t := time.Now()
	inst, err := b.NewInstance(w.N, w.Base, op.Seed)
	s.setup = time.Since(t)
	end()
	if err != nil {
		p.failf(&s, "%s op %d: instance: %v", w.Name, id, err)
		return s
	}

	opts := bench.RunOpts{Workers: p.workers, Pool: fx.pool}
	if w.Variant.IsCnC() {
		opts.Tune = func(g *cnc.Graph) { g.WithExecutor(fx.ex) }
	}
	var slab *tileSlab
	if p.rec != nil {
		slab = newTileSlab(p.rec, geo.tasks)
		opts.Trace = slab.trace
	}
	var fj0 forkjoin.Stats
	if fx.pool != nil {
		fj0 = fx.pool.Stats()
	}
	ex0, proc0 := fx.ex.Stats(), quiesce()
	end = span("bench.run")
	t = time.Now()
	stats, err := inst.Run(ctx, w.Variant, opts)
	s.wall = time.Since(t)
	runSpan := end()
	proc1, ex1 := readProc(), fx.ex.Stats()
	s.alloc, s.mallocs = proc1.alloc-proc0.alloc, proc1.mallocs-proc0.mallocs
	s.cnc, s.ex = stats, execDelta(ex0, ex1)
	if fx.pool != nil {
		s.fj = fjDelta(fj0, fx.pool.Stats())
	}
	if err != nil {
		p.failf(&s, "%s op %d: run: %v", w.Name, id, err)
		return s
	}

	end = span("bench.verify")
	t = time.Now()
	err = inst.Verify()
	s.verify = time.Since(t)
	end()
	if err != nil {
		p.failf(&s, "%s op %d: %v", w.Name, id, err)
	}

	// Deterministic counts against the registry's closed forms.
	if w.Variant.IsCnC() && int(stats.StepsDone) < stats.BaseTasks {
		p.failf(&s, "%s op %d: cnc.steps_done %d < bench.base_tasks %d", w.Name, id, stats.StepsDone, stats.BaseTasks)
	}
	if w.Variant.IsCnC() && stats.BaseTasks != geo.tasks {
		p.failf(&s, "%s op %d: bench.base_tasks %d != TotalTasks %d", w.Name, id, stats.BaseTasks, geo.tasks)
	}
	if fx.pool != nil && s.fj.Executed != s.fj.Spawned {
		p.failf(&s, "%s op %d: forkjoin.executed %d != spawned %d", w.Name, id, s.fj.Executed, s.fj.Spawned)
	}
	if slab != nil {
		tiles := slab.recorded()
		run := p.rec.Get(runSpan)
		s.calls = slab.calls()
		s.busy = Covered(run.Start, run.End, tiles, p.workers)
		s.nonkernel = SelfTime(run.Start, run.End, tiles, p.workers)
		s.callP50 = medianLen(tiles)
		if s.calls != geo.tasks {
			p.failf(&s, "%s op %d: kernels.calls %d != TotalTasks %d", w.Name, id, s.calls, geo.tasks)
		}
		if id < traceTileOps {
			p.rec.KeepTiles(runSpan, tiles)
		}
	}

	// Reference leg: Serial_RDP on a fresh instance of the same seed.
	ref, err := b.NewInstance(w.N, w.Base, op.Seed)
	if err != nil {
		p.failf(&s, "%s op %d: reference instance: %v", w.Name, id, err)
		return s
	}
	var ropts bench.RunOpts
	var refSlab *tileSlab
	if p.rec != nil {
		refSlab = newTileSlab(p.rec, geo.tasks)
		ropts.Trace = refSlab.trace
	}
	quiesce()
	end = span("bench.serial_rdp")
	t = time.Now()
	_, err = ref.Run(ctx, core.SerialRDP, ropts)
	s.ref = time.Since(t)
	end()
	if err == nil {
		err = ref.Verify()
	}
	if err != nil {
		p.failf(&s, "%s op %d: Serial_RDP reference: %v", w.Name, id, err)
	}
	if refSlab != nil {
		s.refCalls = refSlab.calls()
		for _, iv := range refSlab.recorded() {
			s.refBusy += iv.end - iv.start
		}
	}
	return s
}

// medianLen is the median interval length.
func medianLen(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	ds := make([]float64, len(ivs))
	for i, iv := range ivs {
		ds[i] = float64(iv.end - iv.start)
	}
	return time.Duration(Median(ds))
}
