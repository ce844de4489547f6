package perfbench

import (
	"context"
	"fmt"
	"os"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/dist"
	"dpflow/internal/exec"
)

// runDist measures one pass of a dist workload. Each op is one
// dist.Runner.Drive — instance, coordinator and worker processes are built
// and reaped inside it, so everything but RunResult.Wall is set-up — then
// the Serial_RDP reference, and in the traced pass a single-process
// NativeCnC run of the same instance parameters (dist.over_single_x).
// Drive leases from exec.Default(), which the caller sized by pinning
// GOMAXPROCS before first use. Worker sockets live in a short relative
// directory under the working directory: a checkout path can exceed the
// 108-byte sun_path limit, and the benchmark writes nowhere else.
func runDist(ctx context.Context, w *Workload, workers int, seed int64, reps int, rec *Recorder) *pass {
	p := &pass{w: w, workers: workers, rec: rec}
	b := mustBench(w.Bench)
	sockets, err := os.MkdirTemp(".", ".dpperf-sock-")
	if err != nil {
		p.samples = []sample{{}}
		p.failf(&p.samples[0], "%s: %v", w.Name, err)
		return p
	}
	defer func() {
		if err := os.RemoveAll(sockets); err != nil {
			p.failf(&p.samples[0], "%s: socket dir: %v", w.Name, err)
		}
	}()
	runner := &dist.Runner{
		Shards: w.Shards, Workers: workers, Timeout: 60 * time.Second,
		Options: dist.Options{SocketDir: sockets},
	}

	warm := NewPlan(seed, w, passWarmup, warmupOps)
	scratch := &pass{w: w, workers: workers}
	for i := range warm.Ops {
		distOp(ctx, scratch, b, runner, warm.Ops[i], i, 0)
	}

	plan := p.plan(seed, reps)
	p.measured(func() int { return exec.Default().Stats().Leases }, func() {
		for i := 0; i < reps; {
			round := roundOf(i, reps)
			roundStart := time.Now()
			var windows time.Duration
			for ; i < reps && roundOf(i, reps) == round; i++ {
				s := distOp(ctx, p, b, runner, plan.Ops[i], i, round)
				windows += s.wall + s.ref + s.single
				p.samples = append(p.samples, s)
			}
			p.roundSetup = append(p.roundSetup, time.Since(roundStart)-windows)
		}
	})
	return p
}

func distOp(ctx context.Context, p *pass, b bench.Benchmark, runner *dist.Runner, op OpPlan, id, round int) sample {
	s := sample{round: round}
	w := p.w
	if err := ctx.Err(); err != nil {
		p.failf(&s, "%s op %d: %v", w.Name, id, err)
		return s
	}
	root := -1
	if p.rec != nil {
		root = p.rec.Begin(w.Name, id, -1, 0)
		defer p.rec.End(root)
	}

	ex0, proc0 := exec.Default().Stats(), readProc()
	driveStart := time.Now()
	res := runner.Drive(b, w.N, w.Base, op.Seed, nil)
	s.drive = time.Since(driveStart)
	proc1, ex1 := readProc(), exec.Default().Stats()
	s.wall = res.Wall
	// The op window is inside Drive and cannot be bracketed from outside:
	// the allocation delta covers the whole call, instance included.
	s.alloc, s.mallocs = proc1.alloc-proc0.alloc, proc1.mallocs-proc0.mallocs
	s.ex, s.counters = execDelta(ex0, ex1), res.Counters
	s.cnc.Stats = res.Stats
	if p.rec != nil {
		// dist.run's length is RunResult.Wall; its position inside the
		// drive is inferred (teardown is the short tail), not observed.
		end := p.rec.now()
		drive := p.rec.Add(Span{Name: "dist.drive", Op: id, Parent: root, Start: end - s.drive, End: end})
		p.rec.Add(Span{Name: "dist.run", Op: id, Parent: drive, Start: end - s.wall, End: end})
	}
	if res.Err != nil {
		p.failf(&s, "%s op %d: %v", w.Name, id, res.Err)
	}
	if res.Degraded != 0 {
		p.failf(&s, "%s op %d: %d shards degraded to local serving", w.Name, id, res.Degraded)
	}

	var err error
	if s.ref, s.setup, err = timedRun(ctx, b, w.N, w.Base, op.Seed, core.SerialRDP, bench.RunOpts{}); err != nil {
		p.failf(&s, "%s op %d: Serial_RDP reference: %v", w.Name, id, err)
	}
	if p.rec != nil {
		opts := bench.RunOpts{Workers: p.workers, Tune: func(g *cnc.Graph) { g.WithExecutor(exec.Default()) }}
		if s.single, _, err = timedRun(ctx, b, w.N, w.Base, op.Seed, core.NativeCnC, opts); err != nil {
			p.failf(&s, "%s op %d: single-process reference: %v", w.Name, id, err)
		}
	}
	return s
}

// timedRun builds a fresh instance, runs variant v on it and verifies it,
// returning the run's wall time and the instance's build time.
func timedRun(ctx context.Context, b bench.Benchmark, n, base int, seed int64, v core.Variant, opts bench.RunOpts) (wall, setup time.Duration, err error) {
	t := time.Now()
	inst, err := b.NewInstance(n, base, seed)
	setup = time.Since(t)
	if err != nil {
		return 0, setup, fmt.Errorf("instance: %w", err)
	}
	quiesce()
	t = time.Now()
	_, err = inst.Run(ctx, v, opts)
	wall = time.Since(t)
	if err == nil {
		err = inst.Verify()
	}
	return wall, setup, err
}
