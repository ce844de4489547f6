package dist

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dpflow/internal/chaos"
	"dpflow/internal/gep"
)

// patientOpts are fastOpts with deadlines long enough that a reply withheld
// by a test hook is just a slow reply, never a retry or a respawn.
func patientOpts() Options {
	opts := fastOpts()
	opts.RequestTimeout = 30 * time.Second
	opts.AttemptTimeout = 30 * time.Second
	opts.HeartbeatEvery = -1
	return opts
}

// holdReplies installs a frame hook that parks the coordinator's read loops
// on every received msgType frame until the returned release is called.
func holdReplies(c *Coordinator, msgType string) (release func()) {
	gate := make(chan struct{})
	c.SetFrameHook(func(dir chaos.Dir, shard int, mt string, size int) chaos.Verdict {
		if dir == chaos.DirRecv && mt == msgType {
			<-gate
		}
		return chaos.Verdict{}
	})
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

// TestPutsDoNotWaitForAcks is the sender's contract: with the workers' acks
// withheld, a burst of puts below the stall threshold stages and returns —
// no step waits on a cross-process round trip — while Flush, the barrier,
// returns only once every mirror has been acked.
func TestPutsDoNotWaitForAcks(t *testing.T) {
	opts := patientOpts()
	opts.VerifySample = -1
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	release := holdReplies(c, "ack")
	defer release()
	gb := &graphBackend{c: c, prefix: "t/"}

	// Several flush thresholds' worth, but under stallFactor thresholds
	// even if every key hashed to one shard.
	burst := stallFactor*c.opts.BatchOps - 1
	staged := make(chan error, 1)
	go func() {
		for i := 0; i < burst; i++ {
			if err := gb.Put("receipts", gep.ItemKey{I: i}, true); err != nil {
				staged <- err
				return
			}
		}
		staged <- nil
	}()
	select {
	case err := <-staged:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("puts blocked on withheld acks")
	}
	if got := c.Counters().RemotePuts.Load(); got != 0 {
		t.Fatalf("%d puts acked while every ack is withheld", got)
	}

	flushed := make(chan error, 1)
	go func() { flushed <- gb.Flush() }()
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned (%v) with acks still withheld", err)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	snap := c.Counters().Snapshot()
	if snap.RemotePuts != uint64(burst) {
		t.Fatalf("Flush returned with %d of %d mirrors acked", snap.RemotePuts, burst)
	}
	if snap.Retries != 0 || snap.Respawns != 0 || snap.Degradations != 0 {
		t.Fatalf("withheld acks climbed the recovery ladder: %+v", snap)
	}
}

// TestPutStallsAtBufferCap: the buffer is bounded — once a shard's unsent
// puts reach stallFactor flush thresholds, the next put waits for the
// sender, and resumes when the in-flight frame is acked.
func TestPutStallsAtBufferCap(t *testing.T) {
	opts := patientOpts()
	opts.VerifySample = -1
	opts.Shards = 1
	opts.BatchOps = 4
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	release := holdReplies(c, "ack")
	defer release()
	gb := &graphBackend{c: c, prefix: "t/"}

	// The sender takes the first frame's worth (at most; it may be kicked
	// mid-burst) and then sits on its withheld ack; everything after that
	// accumulates, so 2*cap puts must stall.
	total := 2 * stallFactor * opts.BatchOps
	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := gb.Put("receipts", gep.ItemKey{I: i}, true); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		t.Fatalf("%d puts staged (err %v) past a %d-op cap with the sender stuck", total, err, stallFactor*opts.BatchOps)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := gb.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := c.Counters().RemotePuts.Load(); got != uint64(total) {
		t.Fatalf("%d of %d mirrors acked", got, total)
	}
}

// TestVerifyShedCounted saturates the asynchronous verifier: with the
// workers' item replies withheld, the first maxAsyncVerify sampled gets sit
// in flight and every further sample is shed — and counted, where it used
// to vanish.
func TestVerifyShedCounted(t *testing.T) {
	opts := patientOpts()
	opts.VerifySample = 2 // every second get is a sampled, asynchronous cross-check
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gb := &graphBackend{c: c, prefix: "t/"}
	const items, extra = 8, 11
	for i := 0; i < items; i++ {
		if err := gb.Put("receipts", gep.ItemKey{I: i}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := gb.Flush(); err != nil {
		t.Fatal(err)
	}
	release := holdReplies(c, "item")
	defer release()
	for i := 0; i < 2*(maxAsyncVerify+extra); i++ {
		if _, err := gb.Get("receipts", gep.ItemKey{I: i % items}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Counters().VerifyShed.Load(); got != extra {
		t.Fatalf("VerifyShed = %d, want the %d samples beyond the %d in flight", got, extra, maxAsyncVerify)
	}
	release()
	if err := gb.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := c.Counters().Snapshot()
	if snap.VerifiedReads != maxAsyncVerify || snap.VerifyShed != extra {
		t.Fatalf("verified %d, shed %d; want %d and %d", snap.VerifiedReads, snap.VerifyShed, maxAsyncVerify, extra)
	}
}

// TestOversizedPutIsTheCallersError: an item no frame can carry fails its
// put with ErrFrameTooLarge — before it is logged, without a retry, a
// respawn or a degradation — and the coordinator carries on.
func TestOversizedPutIsTheCallersError(t *testing.T) {
	c, err := NewCoordinator(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gb := &graphBackend{c: c, prefix: "t/"}
	if err := gb.Put(strings.Repeat("c", maxFrame), gep.ItemKey{}, true); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized put: %v, want ErrFrameTooLarge", err)
	}
	// The same refusal one layer down: a request the codec cannot frame
	// returns from rpc at once instead of climbing the recovery ladder.
	if _, err := c.rpc(c.shards[0], MsgPut, PutMsg{Coll: "c", Val: make([]byte, maxFrame)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized rpc: %v, want ErrFrameTooLarge", err)
	}
	if err := gb.Put("receipts", gep.ItemKey{I: 1}, true); err != nil {
		t.Fatal(err)
	}
	if err := gb.Flush(); err != nil {
		t.Fatalf("flush after the refused put: %v", err)
	}
	if v, err := gb.Get("receipts", gep.ItemKey{I: 1}); err != nil || v != true {
		t.Fatalf("get after the refused put = %v, %v", v, err)
	}
	snap := c.Counters().Snapshot()
	if snap.Retries != 0 || snap.Respawns != 0 || snap.Degradations != 0 || c.Degraded() != 0 {
		t.Fatalf("a caller error climbed the recovery ladder: %+v", snap)
	}
	if snap.RemotePuts != 1 {
		t.Fatalf("RemotePuts = %d, want only the legal put", snap.RemotePuts)
	}
}
