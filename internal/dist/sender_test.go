package dist

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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

// holdReplies installs a frame hook that parks each shard's sender, inside
// its exchange, on every received msgType frame until the returned release
// is called.
func holdReplies(c *Coordinator, msgType string) (release func()) {
	gate := make(chan struct{})
	c.SetFrameHook(func(dir Dir, shard int, mt string, size int) Verdict {
		if dir == DirRecv && mt == msgType {
			<-gate
		}
		return Verdict{}
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

// TestMirrorVerificationSampling: after Flush, the sender has fetched back
// and checked exactly every VerifySample'th acked put — all of them at 1,
// ⌊puts/2⌋ at 2, none when negative — across batches and shards, with no
// sample dropped.
func TestMirrorVerificationSampling(t *testing.T) {
	const puts = 37
	for _, tc := range []struct{ sample, want int }{{1, puts}, {2, puts / 2}, {-1, 0}} {
		t.Run(fmt.Sprintf("sample=%d", tc.sample), func(t *testing.T) {
			opts := patientOpts()
			opts.VerifySample = tc.sample
			c, err := NewCoordinator(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			gb := &graphBackend{c: c, prefix: "t/"}
			// A barrier every third put: many small frames, most of odd
			// size, so a sample rounded per batch would fall short.
			for i := 0; i < puts; i++ {
				if err := gb.Put("receipts", gep.ItemKey{I: i}, i%3 == 0); err != nil {
					t.Fatal(err)
				}
				if i%3 == 2 || i == puts-1 {
					if err := gb.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			snap := c.Counters().Snapshot()
			if snap.RemotePuts != puts || snap.VerifiedReads != uint64(tc.want) {
				t.Fatalf("%d puts acked, %d verified; want %d and %d", snap.RemotePuts, snap.VerifiedReads, puts, tc.want)
			}
		})
	}
}

// TestLateReplyIsARetry: an ack that arrives after its attempt's deadline
// fails that attempt, which costs one retry and no respawn, and is never
// taken as the answer to a later request: every put is mirrored once and
// every mirror check passes.
func TestLateReplyIsARetry(t *testing.T) {
	opts := fastOpts()
	opts.VerifySample = 1
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var late sync.Once
	c.SetFrameHook(func(dir Dir, shard int, mt string, size int) (v Verdict) {
		if dir == DirRecv && mt == "ack" {
			late.Do(func() { v.Delay = 2 * opts.AttemptTimeout })
		}
		return v
	})
	gb := &graphBackend{c: c, prefix: "t/"}
	const puts = 40
	for i := 0; i < puts; i++ {
		if err := gb.Put("receipts", gep.ItemKey{I: i}, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := gb.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := c.Counters().Snapshot()
	if snap.Retries != 1 || snap.Respawns != 0 || snap.Degradations != 0 {
		t.Fatalf("one late ack: %d retries, %d respawns, %d degradations; want 1, 0, 0", snap.Retries, snap.Respawns, snap.Degradations)
	}
	if snap.RemotePuts != puts || snap.VerifiedReads != puts {
		t.Fatalf("%d puts acked, %d verified; want %d of each", snap.RemotePuts, snap.VerifiedReads, puts)
	}
}

// TestCoordinatorGoroutines: a coordinator's background work is one sender
// per shard and one waiter per worker process — no reader beside the
// sender, no heartbeat beside it.
func TestCoordinatorGoroutines(t *testing.T) {
	// settled returns the goroutine count once it holds still for 20ms, so
	// goroutines of earlier tests that are still exiting do not count.
	settled := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			time.Sleep(20 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				break
			}
			n = m
		}
		return n
	}
	before := settled()
	opts := fastOpts() // two shards
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, want := settled()-before, 2*opts.Shards; got != want {
		t.Fatalf("NewCoordinator started %d goroutines, want %d (a sender and a process waiter per shard)", got, want)
	}
}

// TestCompareMirror: the check of a fetched-back batch refuses every way a
// reply can disagree with what was sent — a differing value, a missing
// item, a short reply, an item error, a malformed payload — and each
// refusal names the shard and the collection.
func TestCompareMirror(t *testing.T) {
	sent := []PutMsg{
		{Coll: "g1/a", Key: []byte{1}, Val: []byte{7}},
		{Coll: "g1/b", Key: []byte{2}, Val: []byte{8, 9}},
	}
	reply := func(items ...ItemMsg) []byte {
		frame, err := EncodeFrame(MsgItemBatch, 1, ItemBatchMsg{Items: items})
		if err != nil {
			t.Fatal(err)
		}
		return frame[prefixLen:]
	}
	good := ItemMsg{Found: true, Val: []byte{7}}
	if err := compareMirror(3, sent, reply(good, ItemMsg{Found: true, Val: []byte{8, 9}})); err != nil {
		t.Fatalf("matching reply refused: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		pl         []byte
	}{
		{"mismatch", "shard 3, g1/b: holds 2 bytes", reply(good, ItemMsg{Found: true, Val: []byte{8, 0}})},
		{"not found", "shard 3, g1/b: item missing", reply(good, ItemMsg{})},
		{"short reply", "shard 3, g1/a: 1 answers for 2 gets", reply(good)},
		{"item error", "shard 3, g1/b: boom", reply(good, ItemMsg{Err: "boom"})},
		{"malformed", "shard 3, g1/a: " + errMalformed.Error(), []byte{9}},
	} {
		err := compareMirror(3, sent, tc.pl)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, tc.want)
		}
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
	snap := c.Counters().Snapshot()
	if snap.Retries != 0 || snap.Respawns != 0 || snap.Degradations != 0 || c.Degraded() != 0 {
		t.Fatalf("a caller error climbed the recovery ladder: %+v", snap)
	}
	if snap.RemotePuts != 1 {
		t.Fatalf("RemotePuts = %d, want only the legal put", snap.RemotePuts)
	}
}
