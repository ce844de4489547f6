package dist_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/chaos"
	"dpflow/internal/dist"
)

// The fault-driving tests sit in the external test package: chaos imports
// dist, and dist imports no fault-injection code. They share the package's
// test binary, so TestMain still self-execs it as the shard workers.

// drive runs b through r with fault f armed on the coordinator and returns
// the result with the number of injections the fault made.
func drive(r *dist.Runner, b bench.Benchmark, n, base int, seed int64, f chaos.DistFault) (dist.RunResult, int) {
	var probe *chaos.Probe
	res := r.Drive(b, n, base, seed, func(c *dist.Coordinator) {
		probe = f.ArmDist(c, rand.New(rand.NewSource(seed)))
	})
	return res, probe.Count()
}

// TestDistChaosMatrix is the tentpole sweep: benchmarks × process-level
// faults × seeds, 2 worker processes each. Every cell must end in a
// verified result with zero discipline violations and zero leaked workers
// — faults may only cost retries, respawns or degradations, never
// correctness. Aggregate assertions afterwards prove the sweep actually
// exercised the recovery machinery rather than passing vacuously.
func TestDistChaosMatrix(t *testing.T) {
	seeds := 10
	benches := bench.All()
	if testing.Short() {
		seeds = 2
		var short []bench.Benchmark
		for _, b := range benches {
			if b.Name() == "ge" || b.Name() == "fw" {
				short = append(short, b)
			}
		}
		benches = short
	}
	faults := []struct {
		name string
		mk   func() chaos.DistFault
	}{
		{"process-kill", func() chaos.DistFault { return &chaos.ProcessKill{Prob: 0.05, Times: 1, After: 8} }},
		{"message-drop", func() chaos.DistFault { return &chaos.MessageDrop{Prob: 0.03, Times: 4} }},
		{"message-delay", func() chaos.DistFault { return &chaos.MessageDelay{Prob: 0.05, Times: 5, Delay: 5 * time.Millisecond} }},
		{"conn-reset", func() chaos.DistFault { return &chaos.ConnReset{Prob: 0.03, Times: 3} }},
	}

	// A frame per put burst: a cell's few dozen items then cross in enough
	// frames for per-frame faults to land mid-run, where a later exchange
	// on the same shard has to absorb them.
	opts := dist.FastOpts()
	opts.BatchOps = 1

	var injections, retries, respawns atomic.Uint64
	t.Run("matrix", func(t *testing.T) {
		for _, b := range benches {
			for _, f := range faults {
				for seed := int64(1); seed <= int64(seeds); seed++ {
					b, f, seed := b, f, seed
					t.Run(fmt.Sprintf("%s/%s/seed%d", b.Name(), f.name, seed), func(t *testing.T) {
						t.Parallel()
						r := &dist.Runner{Shards: 2, Discipline: true, Options: opts}
						res, injected := drive(r, b, 32, 8, seed, f.mk())
						if res.Err != nil {
							t.Fatal(res.Err)
						}
						if len(res.Violations) != 0 {
							t.Fatalf("discipline violations under %s: %v", f.name, res.Violations)
						}
						injections.Add(uint64(injected))
						retries.Add(res.Counters.Retries)
						respawns.Add(res.Counters.Respawns)
					})
				}
			}
		}
	})
	// The sweep must not pass vacuously: across the whole matrix, faults
	// fired and the recovery ladder did real work.
	if injections.Load() == 0 {
		t.Error("no fault injection fired anywhere in the matrix")
	}
	if retries.Load() == 0 {
		t.Error("no transport retry anywhere in the matrix — drops/resets were not absorbed by the retry rung")
	}
	if respawns.Load() == 0 {
		t.Error("no worker respawn anywhere in the matrix — process kills were not absorbed by the supervisor rung")
	}
}

// TestDistDegradation: with the respawn budget disabled, losing a worker
// degrades its shard — it stops being mirrored — and the run still
// verifies, because nothing reads the mirror. Graceful degradation is
// single-process execution.
func TestDistDegradation(t *testing.T) {
	ge, err := bench.ByName("ge")
	if err != nil {
		t.Fatal(err)
	}
	opts := dist.FastOpts()
	opts.MaxRespawns = -1 // no respawns: first loss degrades
	// Kill a worker at the run's second frame, with a frame per put burst
	// and a check after each: whatever the env override, the dead shard
	// has mirror traffic left to notice it.
	opts.BatchOps = 1
	opts.VerifySample = 1
	r := &dist.Runner{Shards: 2, Discipline: true, Options: opts}
	res, injected := drive(r, ge, 64, 16, 7, &chaos.ProcessKill{Prob: 1, Times: 1, After: 1})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if injected == 0 {
		t.Fatal("kill never fired")
	}
	if res.Counters.Degradations == 0 {
		t.Fatalf("shard did not degrade (counters %+v)", res.Counters)
	}
	if res.Counters.RemotePuts >= res.Stats.ItemsPut {
		t.Fatalf("%d of %d puts mirrored: the degraded shard is still being sent puts",
			res.Counters.RemotePuts, res.Stats.ItemsPut)
	}
	if res.Counters.Respawns != 0 {
		t.Fatalf("respawns %d with a zero budget", res.Counters.Respawns)
	}
}

// TestChaosDropsBatchFrame aims MessageDrop at putbatch frames only: losing
// a whole batch mid-flight must cost one retry of the batch, never an item.
// The run must still verify with zero violations.
func TestChaosDropsBatchFrame(t *testing.T) {
	ge, err := bench.ByName("ge")
	if err != nil {
		t.Fatal(err)
	}
	r := &dist.Runner{Shards: 2, Discipline: true, Options: dist.FastOpts()}
	res, injected := drive(r, ge, 64, 16, 11, &chaos.MessageDrop{Prob: 1, Times: 3, Only: "putbatch"})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if injected == 0 {
		t.Fatal("no putbatch frame was dropped — the targeted fault never fired")
	}
	if res.Counters.Retries == 0 {
		t.Fatal("batch frames dropped but no retry recorded — the loss was not absorbed by the retry rung")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("discipline violations after dropped batch frames: %v", res.Violations)
	}
	if res.Counters.PutFrames == 0 || res.Counters.RemotePuts == 0 {
		t.Fatalf("no batched puts on the wire (counters %+v)", res.Counters)
	}
}
