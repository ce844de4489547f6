package perfbench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/cnc"
	"dpflow/internal/dag"
	"dpflow/internal/dist"
	"dpflow/internal/exec"
	"dpflow/internal/exec/admission"
	"dpflow/internal/forkjoin"
	"dpflow/internal/ge"
	"dpflow/internal/kernels"
	"dpflow/internal/matrix"
)

// Micro probes: unit costs of one layer, measured over its exported API on
// synthetic inputs, each well under a second. They run in the traced pass
// only, on an executor of their own. The cnc and forkjoin probes use a
// single logical worker and issue every put from inside a step, as the
// benchmarks' recursive expansions do, so a probe's wall time is the
// worker-time of its N operations and the unit costs can be multiplied by
// the counters of a real run (cnc.modelled_ms).

const (
	microReps = 5 // every probe reports the median of this many runs
	microN    = 4000
	// throttleN is the number of deferred puts the throttled-put probe
	// holds pending. The accountant rescans its pending queue on every
	// item put, so this cost grows with the queue; 256 is the task count
	// of serve-budget's leaves.
	throttleN = 256
)

// medianOf runs probe microReps times and returns the median result.
func medianOf(probe func() (float64, error)) (float64, error) {
	var xs []float64
	for i := 0; i < microReps; i++ {
		x, err := probe()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return Median(xs), nil
}

// runGraph runs body as the single root step of a fresh one-lane graph on
// ex and returns the run's wall time and counters.
func runGraph(ex *exec.Executor, tune func(*cnc.Graph), build func(g *cnc.Graph) (root func())) (time.Duration, cnc.Stats, error) {
	g := cnc.NewGraph("dpperf-micro", 1).WithExecutor(ex)
	if tune != nil {
		tune(g)
	}
	body := build(g)
	roots := cnc.NewTagCollection[int](g, "root_tags", false)
	roots.Prescribe(cnc.NewStepCollection(g, "root", func(int) error { body(); return nil }))
	t := time.Now()
	err := g.Run(func() { roots.Put(0) })
	return time.Since(t), g.Stats(), err
}

// cncMicro measures the cnc unit costs (ns).
func cncMicro(ex *exec.Executor) (map[string]float64, error) {
	out := map[string]float64{}
	var err error
	nop := func(int) error { return nil }

	// One tag put, its dispatch through the lane, and an empty step.
	if out["cnc.step_dispatch_ns"], err = medianOf(func() (float64, error) {
		wall, _, err := runGraph(ex, nil, func(g *cnc.Graph) func() {
			tags := cnc.NewTagCollection[int](g, "tags", false)
			tags.Prescribe(cnc.NewStepCollection(g, "nop", nop))
			return func() {
				for i := 0; i < microN; i++ {
					tags.Put(i)
				}
			}
		})
		return float64(wall) / microN, err
	}); err != nil {
		return nil, fmt.Errorf("cnc.step_dispatch_ns: %w", err)
	}

	// Item put, then get of a present item, timed inside the root step.
	var putNS, getNS []float64
	for r := 0; r < microReps; r++ {
		var put, get time.Duration
		_, _, err := runGraph(ex, nil, func(g *cnc.Graph) func() {
			items := cnc.NewItemCollection[int, bool](g, "items")
			return func() {
				t := time.Now()
				for i := 0; i < microN; i++ {
					items.Put(i, true)
				}
				put = time.Since(t)
				t = time.Now()
				for i := 0; i < microN; i++ {
					items.Get(i)
				}
				get = time.Since(t)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("cnc.item_put_ns: %w", err)
		}
		putNS, getNS = append(putNS, float64(put)/microN), append(getNS, float64(get)/microN)
	}
	out["cnc.item_put_ns"], out["cnc.item_get_hit_ns"] = Median(putNS), Median(getNS)

	// N consumers each get one item. Producer-first they all hit; with the
	// producer queued behind them they all miss, abort, park, and are
	// requeued by the put and re-executed. The difference, per abort, is
	// the cost of a miss.
	consumers := func(producerFirst bool) (time.Duration, cnc.Stats, error) {
		return runGraph(ex, nil, func(g *cnc.Graph) func() {
			items := cnc.NewItemCollection[int, bool](g, "items")
			consume := cnc.NewTagCollection[int](g, "consume_tags", false)
			consume.Prescribe(cnc.NewStepCollection(g, "consume", func(i int) error { items.Get(i); return nil }))
			produce := cnc.NewTagCollection[int](g, "produce_tags", false)
			produce.Prescribe(cnc.NewStepCollection(g, "produce", func(int) error {
				for i := 0; i < microN; i++ {
					items.Put(i, true)
				}
				return nil
			}))
			return func() {
				if producerFirst {
					produce.Put(0)
				}
				for i := 0; i < microN; i++ {
					consume.Put(i)
				}
				if !producerFirst {
					produce.Put(0)
				}
			}
		})
	}
	if out["cnc.get_miss_requeue_ns"], err = medianOf(func() (float64, error) {
		hit, _, err := consumers(true)
		if err != nil {
			return 0, err
		}
		miss, st, err := consumers(false)
		if err != nil {
			return 0, err
		}
		if st.Aborts == 0 {
			return 0, fmt.Errorf("no consumer missed")
		}
		return float64(miss-hit) / float64(st.Aborts), nil
	}); err != nil {
		return nil, fmt.Errorf("cnc.get_miss_requeue_ns: %w", err)
	}

	// A chain of throttleN steps, step i reading item i-1 and writing item
	// i, all tags put up front through PutThrottled. Under a limit that is
	// never reached every tag but the first is deferred (its read is not
	// there yet) and admitted by the accountant as its input lands; with no
	// limit PutThrottled is Put. The difference, per deferred put, is the
	// cost of the throttled path.
	chain := func(limit int64) (time.Duration, cnc.Stats, error) {
		tune := func(g *cnc.Graph) {
			if limit > 0 {
				g.WithMemoryLimit(limit)
			}
		}
		return runGraph(ex, tune, func(g *cnc.Graph) func() {
			items := cnc.NewItemCollection[int, bool](g, "items").
				WithGetCount(func(int) int { return 1 }).
				WithSizeOf(func(int) int { return 2048 })
			tags := cnc.NewTagCollection[int](g, "tags", false).WithTagBytes(func(int) int { return 2048 })
			step := cnc.NewStepCollection(g, "link", func(i int) error {
				items.Get(i - 1)
				if i < throttleN-1 {
					items.Put(i, true)
				}
				return nil
			}).WithGets(func(i int) []cnc.Dep { return []cnc.Dep{items.Key(i - 1)} })
			tags.Prescribe(step)
			return func() {
				items.Put(-1, true)
				for i := 0; i < throttleN; i++ {
					tags.PutThrottled(i)
				}
			}
		})
	}
	if out["cnc.throttled_put_ns"], err = medianOf(func() (float64, error) {
		plain, _, err := chain(0)
		if err != nil {
			return 0, err
		}
		throttled, st, err := chain(1 << 40)
		if err != nil {
			return 0, err
		}
		if st.BackpressureWaits == 0 || st.BackpressureStalls != 0 {
			return 0, fmt.Errorf("probe saw %d waits, %d stalls", st.BackpressureWaits, st.BackpressureStalls)
		}
		return float64(throttled-plain) / float64(st.BackpressureWaits), nil
	}); err != nil {
		return nil, fmt.Errorf("cnc.throttled_put_ns: %w", err)
	}
	return out, nil
}

// forkjoinMicro measures one spawn plus its share of a Wait: a binary tree
// of empty tasks on a one-worker pool.
func forkjoinMicro(ex *exec.Executor) (map[string]float64, error) {
	const depth = 11 // 2^12 - 2 spawns
	pool := forkjoin.NewPool(forkjoin.Config{Workers: 1, Executor: ex})
	defer pool.Close()
	var tree func(c *forkjoin.Ctx, d int)
	tree = func(c *forkjoin.Ctx, d int) {
		if d == 0 {
			return
		}
		var g forkjoin.Group
		c.Spawn(&g, func(c *forkjoin.Ctx) { tree(c, d-1) })
		c.Spawn(&g, func(c *forkjoin.Ctx) { tree(c, d-1) })
		c.Wait(&g)
	}
	ns, err := medianOf(func() (float64, error) {
		before := pool.Stats().Spawned
		t := time.Now()
		err := pool.RunContext(context.Background(), func(c *forkjoin.Ctx) { tree(c, depth) })
		wall := time.Since(t)
		return float64(wall) / float64(pool.Stats().Spawned-before), err
	})
	if err != nil {
		return nil, fmt.Errorf("forkjoin.spawn_wait_ns: %w", err)
	}
	return map[string]float64{"forkjoin.spawn_wait_ns": ns}, nil
}

// stampSource is an exec.Source that records when it is first run.
type stampSource struct {
	mu  sync.Mutex
	ran chan time.Time
}

func (s *stampSource) RunSlot(slot, budget int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ran == nil {
		return 0
	}
	s.ran <- time.Now()
	s.ran = nil
	return 1
}

// execMicro measures the executor's wake latency (Lease.Notify on a parked
// pool until the Source runs) and the cost of opening and closing a lease.
func execMicro(ex *exec.Executor) (map[string]float64, error) {
	const wakes, leases = 200, 2000
	src := &stampSource{}
	lease := ex.Lease("dpperf-micro", 1, src)
	var lat []float64
	for i := 0; i < wakes; i++ {
		time.Sleep(200 * time.Microsecond) // let every worker park again
		ran := make(chan time.Time, 1)
		src.mu.Lock()
		src.ran = ran
		src.mu.Unlock()
		t := time.Now()
		lease.Notify(0)
		select {
		case at := <-ran:
			lat = append(lat, float64(at.Sub(t))/1e3)
		case <-time.After(5 * time.Second):
			lease.Close()
			return nil, fmt.Errorf("exec.notify_to_run_us: notified source never ran")
		}
	}
	lease.Close()

	t := time.Now()
	for i := 0; i < leases; i++ {
		ex.Lease("dpperf-micro", 1, src).Close()
	}
	return map[string]float64{
		"exec.notify_to_run_us":    Median(lat),
		"exec.lease_open_close_us": float64(time.Since(t)) / leases / 1e3,
	}, nil
}

// admissionMicro measures an uncontended Admit + Release pair.
func admissionMicro() (map[string]float64, error) {
	const n = 20000
	tenant := admission.New(1<<30).Tenant("dpperf-micro", 0)
	ns, err := medianOf(func() (float64, error) {
		t := time.Now()
		for i := 0; i < n; i++ {
			grant, err := tenant.Admit(context.Background(), 1<<20)
			if err != nil {
				return 0, err
			}
			grant.Release()
		}
		return float64(time.Since(t)) / n, nil
	})
	if err != nil {
		return nil, fmt.Errorf("admission.admit_release_ns: %w", err)
	}
	return map[string]float64{"admission.admit_release_ns": ns}, nil
}

// distMicro measures the codec on the workload's own wire vocabulary: the
// max-coordinate item sample of Benchmark.Wire (dist moves tile receipts,
// not tiles, so that is the value the data plane encodes per put).
func distMicro(b bench.Benchmark, tiles int) (map[string]float64, error) {
	const n = 2000
	vocab := b.Wire(tiles)
	if len(vocab.Items) == 0 {
		return nil, fmt.Errorf("dist micro: %s declares no wire items", b.Name())
	}
	item := vocab.Items[len(vocab.Items)-1]
	key, err := dist.EncodeValue(item.Key)
	if err != nil {
		return nil, err
	}
	val, err := dist.EncodeValue(item.Val)
	if err != nil {
		return nil, err
	}
	msg := dist.PutMsg{Coll: item.Coll, Key: key, Val: val}
	per := func(op func() error) (float64, error) {
		return medianOf(func() (float64, error) {
			t := time.Now()
			for i := 0; i < n; i++ {
				if err := op(); err != nil {
					return 0, err
				}
			}
			return float64(time.Since(t)) / n, nil
		})
	}
	out := map[string]float64{}
	if out["dist.encode_value_ns"], err = per(func() error { _, err := dist.EncodeValue(item.Key); return err }); err != nil {
		return nil, err
	}
	if out["dist.decode_value_ns"], err = per(func() error { _, err := dist.DecodeValue(key); return err }); err != nil {
		return nil, err
	}
	if out["dist.frame_encode_ns"], err = per(func() error { _, err := dist.EncodeFrame(dist.MsgPut, 1, msg); return err }); err != nil {
		return nil, err
	}
	return out, nil
}

// kernelMicro calls the workload's exported tile kernel directly, single
// threaded, on a cache-resident tile, and returns ns per closed-form flop.
// Cholesky's tile kernels are unexported, so it has no such probe (nil).
func kernelMicro(b bench.Benchmark, side int) map[string]float64 {
	const calls = 2000
	rng := rand.New(rand.NewSource(1))
	var call func()
	var flops float64
	switch b.Name() {
	case "ge":
		// A funcD tile (disjoint pivot row, column and target) of a
		// diagonally dominant system; restored before every call so the
		// values never drift towards denormals.
		pristine, _ := ge.NewSystem(4*side, rng)
		x := pristine.Clone()
		flops = b.Flops(dag.KindD, side)
		call = func() {
			x.CopyFrom(pristine)
			kernels.GE(x, 2*side, 3*side, 0, side)
		}
	case "sw":
		n := 4 * side
		a, c := make([]byte, n), make([]byte, n)
		for i := range a {
			a[i], c[i] = "ACGT"[rng.Intn(4)], "ACGT"[rng.Intn(4)]
		}
		h := matrix.New(n+1, n+1)
		flops = b.Flops(dag.KindSW, side)
		call = func() { kernels.SW(h, a, c, kernels.DefaultScoring, 1+side, 1+side, side) }
	default:
		return nil
	}
	ns, _ := medianOf(func() (float64, error) {
		t := time.Now()
		for i := 0; i < calls; i++ {
			call()
		}
		return float64(time.Since(t)) / calls / flops, nil
	})
	return map[string]float64{"kernels.micro_ns_per_flop": ns}
}
