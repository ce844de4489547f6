package dist

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/gep"
)

// fastOpts are coordinator options tuned for tests: a tight request
// deadline — a 50ms attempt, backoffs from 1ms to 20ms — so recovery
// ladders complete in tens of milliseconds. Every mirrored put is fetched
// back and checked (VerifySample 1) so the tests exercise the full wire
// path; CI's second sweep overrides the rate via DPFLOW_VERIFY_SAMPLE to
// run the same matrix at the production default.
func fastOpts() Options {
	return Options{
		Shards:         2,
		RequestTimeout: 400 * time.Millisecond,
		VerifySample:   verifySampleFromEnv(),
	}
}

// verifySampleFromEnv resolves the test suite's mirror-verification rate:
// every put (1) unless DPFLOW_VERIFY_SAMPLE says otherwise.
func verifySampleFromEnv() int {
	if s := os.Getenv("DPFLOW_VERIFY_SAMPLE"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			return n
		}
	}
	return 1
}

// TestDistAllBenchmarksVerify: every registered benchmark runs 2-process
// sharded with zero per-benchmark code and verifies against its serial
// reference, with real remote traffic and no recovery activity.
func TestDistAllBenchmarksVerify(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			r := &Runner{Shards: 2, Discipline: true, Options: fastOpts()}
			res := r.Drive(b, 64, 16, 42, nil)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if res.Counters.RemotePuts == 0 || res.Counters.PutFrames == 0 {
				t.Fatalf("no remote puts (%d ops in %d frames) — the run was not actually distributed",
					res.Counters.RemotePuts, res.Counters.PutFrames)
			}
			// The sample is exact: every VerifySample'th acked put.
			want := uint64(0)
			if vs := fastOpts().VerifySample; vs > 0 {
				want = res.Counters.RemotePuts / uint64(vs)
			}
			if res.Counters.VerifiedReads != want {
				t.Fatalf("%d mirrored puts verified, want %d (counters %+v)", res.Counters.VerifiedReads, want, res.Counters)
			}
			if res.Counters.BytesOut == 0 || res.Counters.BytesIn == 0 {
				t.Fatalf("no bytes on the wire (out %d, in %d)", res.Counters.BytesOut, res.Counters.BytesIn)
			}
			if res.Counters.Respawns != 0 || res.Degraded != 0 {
				t.Fatalf("clean run needed recovery (respawns %d, degraded %d)",
					res.Counters.Respawns, res.Degraded)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("discipline violations: %v", res.Violations)
			}
		})
	}
}

// TestDistFreesFollowGetCounts: get-count GC reaches the shards. After a
// clean Runner.Drive of every registered benchmark — and of GE at 512/16,
// the geometry of the dist2-ge-fine workload — no shard holds an item, the
// put log holds no entry, every acked put was freed by an acked free, and
// the log never held more than the graph's peak of live items plus one
// in-flight free per worker.
func TestDistFreesFollowGetCounts(t *testing.T) {
	type run struct {
		b       bench.Benchmark
		n, base int
	}
	var runs []run
	for _, b := range bench.All() {
		runs = append(runs, run{b, 64, 16})
	}
	ge, err := bench.ByName("ge")
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, run{ge, 512, 16})
	for _, r := range runs {
		t.Run(fmt.Sprintf("%s-%d", r.b.Name(), r.n), func(t *testing.T) {
			const workers = 4
			res := (&Runner{Shards: 2, Workers: workers, Options: fastOpts()}).Drive(r.b, r.n, r.base, 7, nil)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			c := res.Counters
			if res.Stored != 0 || c.LogLive != 0 {
				t.Fatalf("shards hold %d items and the put log %d entries at the end, want 0", res.Stored, c.LogLive)
			}
			if c.RemotePuts == 0 || c.Frees != c.RemotePuts {
				t.Fatalf("%d frees acked for %d puts, want one each", c.Frees, c.RemotePuts)
			}
			t.Logf("%d puts, %d frees; put log peak %d entries, graph peak %d live items", c.RemotePuts, c.Frees, c.LogPeak, res.Stats.PeakLiveItems)
			if c.LogPeak <= 0 || c.LogPeak > res.Stats.PeakLiveItems+workers {
				t.Fatalf("put log peaked at %d entries, want 1..%d (peak live items %d + %d workers)",
					c.LogPeak, res.Stats.PeakLiveItems+workers, res.Stats.PeakLiveItems, workers)
			}
		})
	}
}

// TestRespawnReplayServesPrekillItems drives the supervisor rung directly:
// put items and flush them, SIGKILL every worker, put more — the ladder
// must respawn each worker and replay its log — then fetch every item
// back from the respawned workers and compare it with the log.
func TestRespawnReplayServesPrekillItems(t *testing.T) {
	c, err := NewCoordinator(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gb := &graphBackend{c: c, prefix: "t/"}
	const items = 24
	put := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := gb.Put("receipts", gep.ItemKey{I: i}, i%2 == 0); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		if err := gb.Flush(); err != nil {
			t.Fatalf("flush puts %d-%d: %v", from, to-1, err)
		}
	}
	put(0, items)
	for s := 0; s < c.Shards(); s++ {
		if err := c.KillWorker(s); err != nil {
			t.Fatalf("kill shard %d: %v", s, err)
		}
	}
	put(items, 2*items)
	for _, sh := range c.shards {
		logged := sh.liveEntries()
		pl, err := c.rpc(sh, MsgGetBatch, getBatch(logged))
		if err != nil {
			t.Fatalf("shard %d: fetch back: %v", sh.idx, err)
		}
		if err := compareMirror(sh.idx, logged, pl); err != nil {
			t.Fatalf("after replay: %v", err)
		}
	}
	snap := c.Counters().Snapshot()
	if snap.Respawns == 0 || snap.ReplayedPuts == 0 {
		t.Fatalf("recovery did not respawn/replay (respawns %d, replayed %d)", snap.Respawns, snap.ReplayedPuts)
	}
	if c.Degraded() != 0 {
		t.Fatalf("%d shards degraded; replay should have recovered them", c.Degraded())
	}
}

// TestReplayRestoresOnlyLiveItems: a respawned worker is replayed the live
// log only. Put items and free a third of them, SIGKILL every worker, put
// more: once the ladder has respawned each worker, it stores exactly its
// shard's live entries, each as sent.
func TestReplayRestoresOnlyLiveItems(t *testing.T) {
	c, err := NewCoordinator(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gb := &graphBackend{c: c, prefix: "t/"}
	const items = 24
	var handles []uint32
	put := func(from, to int) {
		for i := from; i < to; i++ {
			h, err := gb.Put("receipts", gep.ItemKey{I: i}, i%2 == 0)
			if err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			handles = append(handles, h)
		}
		if err := gb.Flush(); err != nil {
			t.Fatalf("flush puts %d-%d: %v", from, to-1, err)
		}
	}
	put(0, items)
	for i := 0; i < items; i += 3 {
		gb.Free(handles[i])
	}
	for s := 0; s < c.Shards(); s++ {
		if err := c.KillWorker(s); err != nil {
			t.Fatalf("kill shard %d: %v", s, err)
		}
	}
	put(items, 2*items)
	for _, sh := range c.shards {
		live := sh.liveEntries()
		stored, err := c.stored(sh)
		if err != nil {
			t.Fatalf("shard %d: %v", sh.idx, err)
		}
		if stored != uint64(len(live)) {
			t.Fatalf("shard %d stores %d items, its log %d live entries", sh.idx, stored, len(live))
		}
		pl, err := c.rpc(sh, MsgGetBatch, getBatch(live))
		if err != nil {
			t.Fatalf("shard %d: fetch back: %v", sh.idx, err)
		}
		if err := compareMirror(sh.idx, live, pl); err != nil {
			t.Fatalf("after replay: %v", err)
		}
	}
	snap := c.Counters().Snapshot()
	if snap.Respawns == 0 || snap.Frees != items/3 || snap.LogLive != 2*items-items/3 {
		t.Fatalf("respawns %d, frees %d, live log entries %d; want respawns, %d frees, %d live",
			snap.Respawns, snap.Frees, snap.LogLive, items/3, 2*items-items/3)
	}
}

// TestCloseReapsAllWorkers: after Close, no worker process exists — the
// zero-orphans contract, probed by PID.
func TestCloseReapsAllWorkers(t *testing.T) {
	c, err := NewCoordinator(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	pids := c.WorkerPIDs()
	if len(pids) != 2 {
		t.Fatalf("WorkerPIDs = %v, want 2 live workers", pids)
	}
	if leaked := livePIDs(pids); len(leaked) != 2 {
		t.Fatalf("live probe sees %v of %v before Close", leaked, pids)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if leaked := livePIDs(pids); len(leaked) != 0 {
		t.Fatalf("worker PIDs %v still alive after Close", leaked)
	}
}

// TestCloseMidRPC closes the coordinator while rpcs are in flight from many
// goroutines. Close must win cleanly: no data race on the connection (this
// test is the -race target for that fix), no deadlock in the draining rpcs,
// and — because the recovery ladder is gated on closed — no worker spawned
// after Close, so no orphaned PIDs.
func TestCloseMidRPC(t *testing.T) {
	c, err := NewCoordinator(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	pids := c.WorkerPIDs()
	gb := &graphBackend{c: c, prefix: "t/"}
	// Stall every frame a little so the workers' replies are reliably still
	// in flight when Close lands mid-exchange.
	c.SetFrameHook(func(dir Dir, shard int, msgType string, size int) Verdict {
		return Verdict{Delay: 2 * time.Millisecond}
	})
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 64; i++ {
				// Errors are expected once Close lands; what matters is
				// that every call returns instead of deadlocking.
				_, _ = gb.Put("receipts", gep.ItemKey{I: g*100 + i}, true)
				if i%8 == 7 {
					_ = gb.Flush()
				}
			}
		}()
	}
	close(start)
	time.Sleep(5 * time.Millisecond) // let the rpcs take flight
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if leaked := livePIDs(pids); len(leaked) != 0 {
		t.Fatalf("worker PIDs %v still alive after mid-rpc Close", leaked)
	}
	// The recovery ladder must not have respawned anything post-Close:
	// WorkerPIDs reports only processes not yet reaped.
	if after := livePIDs(c.WorkerPIDs()); len(after) != 0 {
		t.Fatalf("worker PIDs %v spawned by recovery after Close", after)
	}
}

// TestBatchedPutsReduceFrames is the batched data plane's wire-level
// acceptance check: a run's mirror puts must cross the socket in far fewer
// frames than ops — at least 4 ops per putbatch frame on average, against
// the 1:1 ratio of the old per-item data plane — and with verification off
// nothing is fetched back.
func TestBatchedPutsReduceFrames(t *testing.T) {
	ge, err := bench.ByName("ge")
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts()
	opts.VerifySample = -1 // no mirror checks
	r := &Runner{Shards: 2, Discipline: true, Options: opts}
	res := r.Drive(ge, 64, 16, 3, nil)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Counters.PutFrames == 0 {
		t.Fatalf("no putbatch frames (counters %+v)", res.Counters)
	}
	if ratio := float64(res.Counters.RemotePuts) / float64(res.Counters.PutFrames); ratio < 4 {
		t.Fatalf("%d puts in %d frames (%.1f puts/frame) — batching is not amortising the round trips",
			res.Counters.RemotePuts, res.Counters.PutFrames, ratio)
	}
	if res.Counters.VerifiedReads != 0 {
		t.Fatalf("%d mirrored puts verified with verification disabled", res.Counters.VerifiedReads)
	}
}
