package cnc

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dpflow/internal/determinacy"
)

// recordingBackend is an in-memory ItemBackend that logs every call it
// receives, in order, into the same event log the tests' consumers append
// their reads to — the unit-test stand-in for the distributed coordinator.
type recordingBackend struct {
	mu       sync.Mutex
	events   []string
	putErr   error // returned by every Put/PutBatch when non-nil (terminal)
	flushErr error // returned by Flush when non-nil (terminal)
}

func (b *recordingBackend) record(format string, args ...any) {
	b.mu.Lock()
	b.events = append(b.events, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

func (b *recordingBackend) log() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.events...)
}

// count returns how many logged events start with prefix.
func (b *recordingBackend) count(prefix string) int {
	n := 0
	for _, e := range b.log() {
		if strings.HasPrefix(e, prefix) {
			n++
		}
	}
	return n
}

func (b *recordingBackend) Put(coll string, key, val any) error {
	if b.putErr != nil {
		return b.putErr
	}
	b.record("put %s[%v]=%v", coll, key, val)
	return nil
}

func (b *recordingBackend) PutBatch(ops []PutOp) error {
	if b.putErr != nil {
		return b.putErr
	}
	var sb strings.Builder
	sb.WriteString("batch")
	for _, op := range ops {
		fmt.Fprintf(&sb, " %s[%v]=%v", op.Coll, op.Key, op.Val)
	}
	b.record("%s", sb.String())
	return nil
}

func (b *recordingBackend) Flush() error {
	b.record("flush")
	return b.flushErr
}

// Get is not part of ItemBackend. It is here so that a runtime reading
// through the backend — by asserting for the method — shows up in the log.
func (b *recordingBackend) Get(coll string, key any) (any, error) {
	b.record("get %s[%v]", coll, key)
	return nil, errors.New("recordingBackend: read through the mirror")
}

// awaitBlocked spins until n waiters are parked: a consumer woken by a put
// runs strictly after that put's mirror, which is the ordering these tests
// pin (a consumer that reads an item on its own timing needs no mirror).
func awaitBlocked(g *Graph, n int) {
	for len(g.Blocked()) < n {
		runtime.Gosched()
	}
}

// TestItemBackendWriteThroughAndRemoteRead: a put is mirrored before the
// consumer it wakes runs, and that consumer reads the producer's value
// without the backend seeing a read.
func TestItemBackendWriteThroughAndRemoteRead(t *testing.T) {
	be := &recordingBackend{}
	g := NewGraph("backend", 2)
	g.WithItemBackend(be)
	items := NewItemCollection[int, int](g, "vals")
	consume := NewStepCollection(g, "consume", func(k int) error {
		v := items.Get(k) // parks until the producer's put lands
		be.record("read %d=%d", k, v)
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
		ctags.Put(1)
		awaitBlocked(g, 1)
		ptags.Put(1)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []string{"put vals[1]=7", "read 1=7", "flush"}
	if got := be.log(); strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Fatalf("event log %q, want %q", got, want)
	}
	if st := g.Stats(); st.BackendPuts != 1 {
		t.Fatalf("BackendPuts = %d, want 1", st.BackendPuts)
	}
	if g.BackendBusy() != 0 {
		t.Fatalf("BackendBusy = %d after quiesce, want 0", g.BackendBusy())
	}
}

// TestBackendNeverRead: every way a step reads an item — a body Get, the
// pre-body read of a declared read set, TryGet, under the discipline
// checker too — returns the producer's value from the cell, and the
// backend sees puts, batches and the end-of-run flush, nothing else.
func TestBackendNeverRead(t *testing.T) {
	const n = 16
	be := &recordingBackend{}
	g := NewGraph("backend-never-read", 4)
	g.WithItemBackend(be)
	dc := determinacy.NewDisciplineChecker()
	g.WithDisciplineCheck(dc)
	items := NewItemCollection[int, int](g, "vals")
	items.WithGetCount(func(int) int { return 2 })
	var mu sync.Mutex
	got := map[string]int{}
	read := func(how string, k, v int) {
		mu.Lock()
		got[fmt.Sprintf("%s %d", how, k)] = v
		mu.Unlock()
	}
	declared := NewStepCollection(g, "declared", func(k int) error {
		read("declared", k, items.Get(k))
		return nil
	}).WithGets(func(k int) []Dep { return []Dep{items.Key(k)} })
	tuned := NewStepCollection(g, "tuned", func(k int) error {
		v, ok := items.TryGet(k)
		if !ok {
			return fmt.Errorf("tuned %d ran before its dependency", k)
		}
		read("tuned", k, v)
		return nil
	}).WithTunedGetsAppend(TunedTriggered, func(k int, buf []Dep) []Dep { return append(buf, items.Key(k)) })
	produce := NewStepCollection(g, "produce", func(k int) error {
		if k%2 == 0 {
			items.Put(k, 10*k)
			return nil
		}
		bu := g.NewBurst()
		items.PutInto(k, 10*k, bu)
		bu.Flush()
		return nil
	})
	ctags := NewTagCollection[int](g, "ctags", false)
	ptags := NewTagCollection[int](g, "ptags", false)
	ctags.Prescribe(declared)
	ctags.Prescribe(tuned)
	ptags.Prescribe(produce)
	if err := g.Run(func() {
		putBurst(ctags, 0, n)
		putBurst(ptags, 0, n)
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	for k := 0; k < n; k++ {
		for _, how := range []string{"declared", "tuned"} {
			if v := got[fmt.Sprintf("%s %d", how, k)]; v != 10*k {
				t.Fatalf("%s consumer of %d read %d, want the producer's %d", how, k, v, 10*k)
			}
		}
	}
	for _, e := range be.log() {
		if !strings.HasPrefix(e, "put ") && !strings.HasPrefix(e, "batch ") && e != "flush" {
			t.Fatalf("backend saw %q; a mirror only takes puts", e)
		}
	}
	st := g.Stats()
	if st.BackendPuts != n || be.count("put ")+be.count("batch ") != n {
		t.Fatalf("BackendPuts = %d, backend log %q; want %d mirrored puts", st.BackendPuts, be.log(), n)
	}
	if st.LiveItems != 0 {
		t.Fatalf("LiveItems = %d, want 0", st.LiveItems)
	}
	if v := dc.Violations(); len(v) != 0 {
		t.Fatalf("discipline violations: %v", v)
	}
}

// TestItemBackendRePutRefusedBeforeMirror: a second put of one key fails
// the graph in cnc, and only the first reaches the backend — which is why
// a backend's put log needs no index to refuse duplicates.
func TestItemBackendRePutRefusedBeforeMirror(t *testing.T) {
	for _, burst := range []bool{false, true} {
		be := &recordingBackend{}
		g := NewGraph("backend-reput", 2)
		g.WithItemBackend(be)
		items := NewItemCollection[int, int](g, "vals")
		produce := NewStepCollection(g, "produce", func(k int) error {
			if !burst {
				items.Put(4, k)
				return nil
			}
			bu := g.NewBurst()
			items.PutInto(4, k, bu)
			bu.Flush()
			return nil
		})
		ptags := NewTagCollection[int](g, "ptags", false)
		ptags.Prescribe(produce)
		err := g.Run(func() {
			ptags.Put(1)
			ptags.Put(2)
		})
		if err == nil || !strings.Contains(err.Error(), "single-assignment violation: item vals[4] put twice") {
			t.Fatalf("burst=%v: want a single-assignment violation, got %v", burst, err)
		}
		if n := be.count("put ") + be.count("batch "); n != 1 {
			t.Fatalf("burst=%v: backend log %q, want exactly the first put", burst, be.log())
		}
		if st := g.Stats(); st.BackendPuts != 1 {
			t.Fatalf("burst=%v: BackendPuts = %d, want 1", burst, st.BackendPuts)
		}
	}
}

// TestItemBackendRetriesReleaseOnce mirrors the retry × cancellation
// accounting test (TestWithRetryCancellationMidRetry) at the backend tier:
// a step whose first attempt fails *after* its gets must not double-release
// its read set when the retry succeeds — get-count GC decrements exactly
// once, so the run quiesces leak-free with no over-release error, and the
// backend sees one put and no read.
func TestItemBackendRetriesReleaseOnce(t *testing.T) {
	be := &recordingBackend{}
	g := NewGraph("backend-retry", 2)
	g.SetRetry(2)
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
	if want := []string{"put vals[1]=1", "flush"}; strings.Join(be.log(), "; ") != strings.Join(want, "; ") {
		t.Fatalf("backend log %q, want %q", be.log(), want)
	}
	if st.LiveItems != 0 || st.ItemsFreed != 1 {
		t.Fatalf("LiveItems = %d, ItemsFreed = %d; want 0 live, 1 freed (released exactly once)",
			st.LiveItems, st.ItemsFreed)
	}
}

// TestItemBackendTerminalErrorFailsGraph: a backend that finds a mirror
// bad after the puts returned (internal/dist checks a sample of each acked
// batch) reports it from the end-of-run Flush, and that is terminal — the
// run fails with the backend's error even though every step succeeded.
func TestItemBackendTerminalErrorFailsGraph(t *testing.T) {
	be := &recordingBackend{flushErr: errors.New("mirror check: shard 0, vals: item missing")}
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
	if !strings.Contains(err.Error(), "item backend flush: mirror check: shard 0, vals") {
		t.Fatalf("error does not carry the backend's: %v", err)
	}
	if st := g.Stats(); st.StepsDone != 2 {
		t.Fatalf("StepsDone = %d, want both steps done before the flush failed", st.StepsDone)
	}
}

// TestItemBackendErrorCountsOnlySuccesses: Stats.BackendPuts must count
// operations the backend *accepted* — a terminal error is a failed
// operation, not traffic. (The counter feeds the harness reports' put
// censuses; counting failures would make a failing run's report
// indistinguishable from a healthy one.)
func TestItemBackendErrorCountsOnlySuccesses(t *testing.T) {
	t.Run("put", func(t *testing.T) {
		be := &recordingBackend{putErr: errors.New("shard refused the put")}
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
}

// TestItemBackendPutBatchFlushBeforeWakeup: PutInto stages mirrors into the
// burst, Flush delivers them as one PutBatch call, and the batch reaches
// the backend before any consumer woken by the burst runs: the event log
// holds the batch ahead of every consumer's read, and each consumer read
// the producer's value.
func TestItemBackendPutBatchFlushBeforeWakeup(t *testing.T) {
	const n = 8
	be := &recordingBackend{}
	g := NewGraph("backend-batch", 4)
	g.WithItemBackend(be)
	items := NewItemCollection[int, int](g, "vals")
	consume := NewStepCollection(g, "consume", func(k int) error {
		be.record("read %d=%d", k, items.Get(k)) // parks until the producer's burst flushes
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
		// wait list, so each consumer runs because the burst woke it.
		awaitBlocked(g, n)
		ptags.Put(0)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	log := be.log()
	if len(log) != n+2 || !strings.HasPrefix(log[0], "batch ") || log[n+1] != "flush" {
		t.Fatalf("event log %q, want the batch, %d reads, then the flush", log, n)
	}
	reads := map[string]bool{}
	for _, e := range log[1 : n+1] {
		reads[e] = true
	}
	for i := 0; i < n; i++ {
		if !reads[fmt.Sprintf("read %d=%d", i, i)] {
			t.Fatalf("event log %q lacks consumer %d reading %d after the batch", log, i, i)
		}
	}
	if st := g.Stats(); st.BackendPuts != n {
		t.Fatalf("BackendPuts = %d, want %d", st.BackendPuts, n)
	}
}

// TestItemBackendBatchTerminalErrorFailsGraph: a refused batch is as
// terminal as a refused put — the run fails, naming the batch.
func TestItemBackendBatchTerminalErrorFailsGraph(t *testing.T) {
	be := &recordingBackend{putErr: errors.New("write-once violation")}
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
