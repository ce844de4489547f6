package perfbench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/dag"
	"dpflow/internal/dist"
	"dpflow/internal/exec"
	"dpflow/internal/forkjoin"
	"dpflow/internal/gep"
)

// sample is everything observed about one op (one rep): the subject op,
// its Serial_RDP reference on the same instance parameters, and the
// counter deltas read from the layers' exported snapshots around it.
type sample struct {
	round  int
	failed bool

	wall time.Duration // the op window
	ref  time.Duration // Serial_RDP on a fresh instance of the same seed

	setup, verify time.Duration // subject NewInstance and Verify
	alloc         uint64        // TotalAlloc delta over the op window
	mallocs       uint64        // Mallocs delta over the op window

	cnc gep.CnCStats
	fj  forkjoin.Stats // delta
	ex  exec.Stats     // delta of Claims, Units, Parks, Wakeups

	// Traced passes only: what the RunOpts.Trace brackets saw. busy and
	// nonkernel split the workers × bench.run span between them.
	calls, refCalls int
	busy, nonkernel time.Duration
	refBusy         time.Duration
	callP50         time.Duration

	// Dist ops.
	drive    time.Duration // whole Runner.Drive call
	counters dist.CounterSnapshot
	single   time.Duration // same instance parameters, single-process NativeCnC

	sv *serveSample
}

// pass is one measured sweep over a workload's ops; rec != nil makes it the
// traced pass.
type pass struct {
	w       *Workload
	workers int
	rec     *Recorder

	samples    []sample
	roundSetup []time.Duration // everything outside op and reference windows
	// Serve only: the measured window of each round and the Serial_RDP
	// reference times of each leaf spec, per round.
	roundWindow []time.Duration
	leafRef     [][][]time.Duration // [round][leaf]samples

	gcCycles       uint32
	gcPause        time.Duration
	goroutinesPeak int
	leasesPeak     int
	scrape         []time.Duration // GET /metrics
	jobsDone       float64         // dpserve_jobs{state="done"}, summed over rounds
	jobsFailed     float64
	admitted       uint64
	degradations   uint64
	queueDepthMax  int

	mu   sync.Mutex
	errs []string
}

// failf marks s failed and keeps the first few reasons for the report.
func (p *pass) failf(s *sample, format string, args ...any) {
	s.failed = true
	p.mu.Lock()
	if len(p.errs) < 8 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
	p.mu.Unlock()
}

func (p *pass) failed() int {
	n := 0
	for i := range p.samples {
		if p.samples[i].failed {
			n++
		}
	}
	return n
}

// procCounters is the slice of runtime.MemStats the benchmark reads.
type procCounters struct {
	alloc, mallocs uint64
	gc             uint32
	pause          time.Duration
}

func readProc() procCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procCounters{m.TotalAlloc, m.Mallocs, m.NumGC, time.Duration(m.PauseTotalNs)}
}

// quiesce finishes the garbage collection that building an instance
// started, so a compute op window opens on a settled heap and pays only for
// collections its own allocation triggers (on two cores a background mark
// phase landing inside a 17 ms op doubles it). Part of set-up time.
func quiesce() procCounters {
	runtime.GC()
	spreadThreads(runtime.GOMAXPROCS(0))
	return readProc()
}

func execDelta(a, b exec.Stats) exec.Stats {
	return exec.Stats{
		Claims: b.Claims - a.Claims, Units: b.Units - a.Units,
		Parks: b.Parks - a.Parks, Wakeups: b.Wakeups - a.Wakeups,
	}
}

func fjDelta(a, b forkjoin.Stats) forkjoin.Stats {
	return forkjoin.Stats{
		Spawned: b.Spawned - a.Spawned, Executed: b.Executed - a.Executed,
		Steals: b.Steals - a.Steals, FailedProbes: b.FailedProbes - a.FailedProbes,
		Yields: b.Yields - a.Yields,
	}
}

// sampler polls the goroutine and lease counts during a traced pass (the
// only two per-layer numbers with no before/after snapshot to read).
type sampler struct {
	stop chan struct{}
	done chan struct{}

	goroutines, leases int
}

func startSampler(leases func() int) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			if n := runtime.NumGoroutine(); n > s.goroutines {
				s.goroutines = n
			}
			if n := leases(); n > s.leases {
				s.leases = n
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// liveExecutor is the executor of the round in progress, published for the
// sampler.
type liveExecutor struct{ atomic.Pointer[exec.Executor] }

func (l *liveExecutor) leases() int {
	if ex := l.Load(); ex != nil {
		return ex.Stats().Leases
	}
	return 0
}

// finish stops the sampler and stores its peaks.
func (s *sampler) finish(p *pass) {
	close(s.stop)
	<-s.done
	p.goroutinesPeak, p.leasesPeak = s.goroutines, s.leases
}

// plan derives the pass's op plan: the traced pass does not replay the
// untraced pass's instances.
func (p *pass) plan(seed int64, ops int) Plan {
	kind := passUntraced
	if p.rec != nil {
		kind = passTraced
	}
	return NewPlan(seed, p.w, kind, ops)
}

// measured runs the pass's timed rounds between the process-wide readings:
// GC counters before and after, and in a traced pass the sampler, which
// reads the live lease count through leases.
func (p *pass) measured(leases func() int, rounds func()) {
	var smp *sampler
	if p.rec != nil {
		smp = startSampler(leases)
	}
	proc0 := readProc()
	rounds()
	proc1 := readProc()
	p.gcCycles, p.gcPause = proc1.gc-proc0.gc, proc1.pause-proc0.pause
	if smp != nil {
		smp.finish(p)
	}
}

// mustBench resolves a benchmark the workload table names; the table is
// static, so an unregistered name is a bug in it.
func mustBench(name string) bench.Benchmark {
	b, err := bench.ByName(name)
	if err != nil {
		panic(err)
	}
	return b
}

// geometry is the closed-form description of one (benchmark, n, base)
// problem from the registry.
type geometry struct {
	tiles, side int     // tiles per matrix side, base tile side
	tasks       int     // TotalTasks(tiles)
	flops       float64 // Σ KindCounts × Flops
	depGets     float64 // Σ KindCounts × DepCount: declared gets of a clean run
}

func geometryOf(b bench.Benchmark, n, base int) geometry {
	side := gep.BaseSize(n, base)
	g := geometry{tiles: n / side, side: side}
	g.tasks = b.TotalTasks(g.tiles)
	for kind, count := range b.KindCounts(g.tiles) {
		g.flops += float64(count) * b.Flops(dag.Kind(kind), side)
		g.depGets += float64(count) * b.DepCount(dag.Kind(kind))
	}
	return g
}
