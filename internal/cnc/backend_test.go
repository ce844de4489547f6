package cnc

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// mapBackend is an in-memory ItemBackend that can perturb the value it
// serves and count its traffic — the unit-test stand-in for the distributed
// coordinator.
type mapBackend struct {
	mu      sync.Mutex
	items   map[string]any
	puts    int
	gets    int
	batches int // PutBatch calls (each delivering >= 1 op)
	// transform, when non-nil, rewrites served values — proof the Get path
	// returns the backend's copy, not the local cache.
	transform func(any) any
	putErr    error // returned by every Put/PutBatch when non-nil (terminal)
	getErr    error // returned by every Get when non-nil (terminal)
}

func (b *mapBackend) key(coll string, key any) string { return fmt.Sprintf("%s[%v]", coll, key) }

func (b *mapBackend) Put(coll string, key, val any) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.putErr != nil {
		return b.putErr
	}
	if b.items == nil {
		b.items = make(map[string]any)
	}
	b.items[b.key(coll, key)] = val
	b.puts++
	return nil
}

func (b *mapBackend) PutBatch(ops []PutOp) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.putErr != nil {
		return b.putErr
	}
	if b.items == nil {
		b.items = make(map[string]any)
	}
	for _, op := range ops {
		b.items[b.key(op.Coll, op.Key)] = op.Val
		b.puts++
	}
	b.batches++
	return nil
}

func (b *mapBackend) Get(coll string, key any) (any, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gets++
	if b.getErr != nil {
		return nil, b.getErr
	}
	v, ok := b.items[b.key(coll, key)]
	if !ok {
		return nil, fmt.Errorf("backend: missing %s", b.key(coll, key))
	}
	if b.transform != nil {
		v = b.transform(v)
	}
	return v, nil
}

// TestItemBackendWriteThroughAndRemoteRead proves the seam's two halves:
// every put is mirrored before consumers run, and every get serves the
// backend's value (the transform shows up in the consumer's read), with the
// traffic visible in Stats.
func TestItemBackendWriteThroughAndRemoteRead(t *testing.T) {
	be := &mapBackend{transform: func(v any) any { return v.(int) + 100 }}
	g := NewGraph("backend", 2)
	g.WithItemBackend(be)
	items := NewItemCollection[int, int](g, "vals")
	var got int
	consume := NewStepCollection(g, "consume", func(k int) error {
		got = items.Get(k) // parks until the producer's put lands
		return nil
	})
	produce := NewStepCollection(g, "produce", func(k int) error {
		items.Put(k, 7)
		return nil
	})
	ctags := NewTagCollection[int](g, "ctags", false)
	ptags := NewTagCollection[int](g, "ptags", false)
	ctags.Prescribe(consume)
	ptags.Prescribe(produce)

	err := g.Run(func() {
		ctags.Put(1) // consumer first: exercises the park-then-wake order
		ptags.Put(1)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 107 {
		t.Fatalf("consumer read %d, want the backend-served 107 (local cache was 7)", got)
	}
	st := g.Stats()
	if st.BackendPuts != 1 || be.puts != 1 {
		t.Fatalf("BackendPuts = %d (backend saw %d), want 1", st.BackendPuts, be.puts)
	}
	if st.BackendGets == 0 || be.gets == 0 {
		t.Fatalf("BackendGets = %d (backend saw %d), want > 0", st.BackendGets, be.gets)
	}
	if g.BackendBusy() != 0 {
		t.Fatalf("BackendBusy = %d after quiesce, want 0", g.BackendBusy())
	}
}

// TestItemBackendRetriesReleaseOnce mirrors the PR 6 WithRetry ×
// cancellation accounting test at the backend tier: a step whose first
// attempt fails *after* its backend-served gets must not double-release its
// read set when the retry succeeds — the backend sees the re-read (two
// gets) but get-count GC decrements exactly once, so the run quiesces
// leak-free with no over-release error.
func TestItemBackendRetriesReleaseOnce(t *testing.T) {
	be := &mapBackend{}
	g := NewGraph("backend-retry", 2)
	g.WithItemBackend(be)
	items := NewItemCollection[int, int](g, "vals")
	items.WithGetCount(func(int) int { return 1 })

	var attempts int
	var mu sync.Mutex
	consume := NewStepCollection(g, "consume", func(k int) error {
		_ = items.Get(k) // gets-first: the failed attempt has already read
		mu.Lock()
		attempts++
		first := attempts == 1
		mu.Unlock()
		if first {
			return errors.New("transient")
		}
		return nil
	})
	consume.WithRetry(2)
	consume.WithGets(func(k int) []Dep { return []Dep{items.Key(k)} })
	produce := NewStepCollection(g, "produce", func(k int) error {
		items.Put(k, k)
		return nil
	})
	ctags := NewTagCollection[int](g, "ctags", false)
	ptags := NewTagCollection[int](g, "ptags", false)
	ctags.Prescribe(consume)
	ptags.Prescribe(produce)

	err := g.Run(func() {
		ptags.Put(1)
		ctags.Put(1)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one injected failure + one retry)", attempts)
	}
	st := g.Stats()
	if st.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", st.Retries)
	}
	if be.gets < 2 {
		t.Fatalf("backend gets = %d, want >= 2 (each attempt re-reads)", be.gets)
	}
	if st.LiveItems != 0 || st.ItemsFreed != 1 {
		t.Fatalf("LiveItems = %d, ItemsFreed = %d; want 0 live, 1 freed (released exactly once)",
			st.LiveItems, st.ItemsFreed)
	}
}

// TestItemBackendTerminalErrorFailsGraph: a backend that cannot serve a get
// even after its internal recovery (a non-nil error) is terminal — the run
// fails with an error naming the collection and key, never silently serving
// the stale local copy as a success.
func TestItemBackendTerminalErrorFailsGraph(t *testing.T) {
	be := &mapBackend{getErr: errors.New("shard 0 irrecoverably lost")}
	g := NewGraph("backend-err", 2)
	g.WithItemBackend(be)
	items := NewItemCollection[int, int](g, "vals")
	consume := NewStepCollection(g, "consume", func(k int) error {
		_ = items.Get(k)
		return nil
	})
	ctags := NewTagCollection[int](g, "ctags", false)
	ctags.Prescribe(consume)
	produce := NewStepCollection(g, "produce", func(k int) error {
		items.Put(k, k)
		return nil
	})
	ptags := NewTagCollection[int](g, "ptags", false)
	ptags.Prescribe(produce)

	err := g.Run(func() {
		ptags.Put(3)
		ctags.Put(3)
	})
	if err == nil {
		t.Fatal("run succeeded with a terminally failing backend")
	}
	if !strings.Contains(err.Error(), "item backend get vals[3]") {
		t.Fatalf("error does not name the backend get: %v", err)
	}
}

// TestItemBackendErrorCountsOnlySuccesses: Stats.BackendPuts/BackendGets
// must count operations the backend *accepted* — a terminal error is a
// failed operation, not traffic. (The counters feed the harness reports'
// put/get censuses; counting failures would make a failing run's report
// indistinguishable from a healthy one.)
func TestItemBackendErrorCountsOnlySuccesses(t *testing.T) {
	t.Run("put", func(t *testing.T) {
		be := &mapBackend{putErr: errors.New("shard refused the put")}
		g := NewGraph("backend-putcount", 2)
		g.WithItemBackend(be)
		items := NewItemCollection[int, int](g, "vals")
		produce := NewStepCollection(g, "produce", func(k int) error {
			items.Put(k, k)
			return nil
		})
		ptags := NewTagCollection[int](g, "ptags", false)
		ptags.Prescribe(produce)
		err := g.Run(func() { ptags.Put(1) })
		if err == nil || !strings.Contains(err.Error(), "item backend put vals[1]") {
			t.Fatalf("want a terminal backend-put error, got %v", err)
		}
		if st := g.Stats(); st.BackendPuts != 0 {
			t.Fatalf("BackendPuts = %d after a failed put, want 0", st.BackendPuts)
		}
	})
	t.Run("get", func(t *testing.T) {
		be := &mapBackend{getErr: errors.New("shard irrecoverably lost")}
		g := NewGraph("backend-getcount", 2)
		g.WithItemBackend(be)
		items := NewItemCollection[int, int](g, "vals")
		consume := NewStepCollection(g, "consume", func(k int) error {
			_ = items.Get(k)
			return nil
		})
		ctags := NewTagCollection[int](g, "ctags", false)
		ctags.Prescribe(consume)
		produce := NewStepCollection(g, "produce", func(k int) error {
			items.Put(k, k)
			return nil
		})
		ptags := NewTagCollection[int](g, "ptags", false)
		ptags.Prescribe(produce)
		err := g.Run(func() {
			ptags.Put(2)
			ctags.Put(2)
		})
		if err == nil || !strings.Contains(err.Error(), "item backend get vals[2]") {
			t.Fatalf("want a terminal backend-get error, got %v", err)
		}
		if st := g.Stats(); st.BackendGets != 0 {
			t.Fatalf("BackendGets = %d after a failed get, want 0", st.BackendGets)
		}
	})
}

// TestItemBackendPutBatchFlushBeforeWakeup: PutInto stages mirrors into the
// burst, Flush delivers them as one PutBatch call, and — the ordering that
// distributed read-your-writes rests on — the batch reaches the backend
// before any consumer woken by the burst reads: the consumers observe the
// backend's transformed values, proving their reads went out after the
// batched mirror landed.
func TestItemBackendPutBatchFlushBeforeWakeup(t *testing.T) {
	const n = 8
	be := &mapBackend{transform: func(v any) any { return v.(int) + 100 }}
	g := NewGraph("backend-batch", 4)
	g.WithItemBackend(be)
	items := NewItemCollection[int, int](g, "vals")
	got := make([]int, n)
	consume := NewStepCollection(g, "consume", func(k int) error {
		got[k] = items.Get(k) // parks until the producer's burst flushes
		return nil
	})
	produce := NewStepCollection(g, "produce", func(k int) error {
		bu := g.NewBurst()
		for i := 0; i < n; i++ {
			items.PutInto(i, i, bu)
		}
		bu.Flush()
		return nil
	})
	ctags := NewTagCollection[int](g, "ctags", false)
	ptags := NewTagCollection[int](g, "ptags", false)
	ctags.Prescribe(consume)
	ptags.Prescribe(produce)

	err := g.Run(func() {
		for i := 0; i < n; i++ {
			ctags.Put(i)
		}
		// Prescribe the producer only once every consumer is on its cell's
		// wait list. A consumer that first ran between PutInto (the cell is
		// published) and Flush (the batch is delivered) would read in the
		// local-insert-precedes-mirror window, which the ItemBackend
		// contract leaves to the backend to absorb and mapBackend does not.
		for len(g.Blocked()) < n {
			runtime.Gosched()
		}
		ptags.Put(0)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 0; i < n; i++ {
		if got[i] != i+100 {
			t.Fatalf("consumer %d read %d, want the backend-served %d", i, got[i], i+100)
		}
	}
	st := g.Stats()
	if st.BackendPuts != n || be.puts != n {
		t.Fatalf("BackendPuts = %d (backend saw %d), want %d", st.BackendPuts, be.puts, n)
	}
	if be.batches != 1 {
		t.Fatalf("backend saw %d PutBatch calls for one burst, want 1", be.batches)
	}
}

// TestItemBackendBatchTerminalErrorFailsGraph: a refused batch is as
// terminal as a refused put — the run fails, naming the batch.
func TestItemBackendBatchTerminalErrorFailsGraph(t *testing.T) {
	be := &mapBackend{putErr: errors.New("write-once violation")}
	g := NewGraph("backend-batch-err", 2)
	g.WithItemBackend(be)
	items := NewItemCollection[int, int](g, "vals")
	produce := NewStepCollection(g, "produce", func(k int) error {
		bu := g.NewBurst()
		items.PutInto(k, k, bu)
		items.PutInto(k+1, k, bu)
		bu.Flush()
		return nil
	})
	ptags := NewTagCollection[int](g, "ptags", false)
	ptags.Prescribe(produce)
	err := g.Run(func() { ptags.Put(1) })
	if err == nil || !strings.Contains(err.Error(), "item backend put batch of 2") {
		t.Fatalf("want a terminal batch error, got %v", err)
	}
	if st := g.Stats(); st.BackendPuts != 0 {
		t.Fatalf("BackendPuts = %d after a refused batch, want 0", st.BackendPuts)
	}
}

// TestItemBackendTypeMismatchFailsLoudly: a backend returning the wrong
// concrete type (a codec bug in a real deployment) must fail the graph with
// an error naming both types, not corrupt the step's read.
func TestItemBackendTypeMismatchFailsLoudly(t *testing.T) {
	be := &mapBackend{transform: func(any) any { return "not an int" }}
	g := NewGraph("backend-type", 2)
	g.WithItemBackend(be)
	items := NewItemCollection[int, int](g, "vals")
	consume := NewStepCollection(g, "consume", func(k int) error {
		_ = items.Get(k)
		return nil
	})
	ctags := NewTagCollection[int](g, "ctags", false)
	ctags.Prescribe(consume)
	produce := NewStepCollection(g, "produce", func(k int) error {
		items.Put(k, k)
		return nil
	})
	ptags := NewTagCollection[int](g, "ptags", false)
	ptags.Prescribe(produce)

	err := g.Run(func() {
		ptags.Put(5)
		ctags.Put(5)
	})
	if err == nil {
		t.Fatal("run succeeded with a type-corrupting backend")
	}
	if !strings.Contains(err.Error(), "want int") || !strings.Contains(err.Error(), "string") {
		t.Fatalf("error does not name the mismatched types: %v", err)
	}
}
