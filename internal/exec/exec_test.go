package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chanSource is a minimal Source over per-slot FIFO queues: a slot drains
// its own queue, then the others', as the executor requires of every Source.
type chanSource struct {
	mu  sync.Mutex
	qs  [][]func()
	ran atomic.Int64
}

func newChanSource(slots int) *chanSource {
	return &chanSource{qs: make([][]func(), slots)}
}

func (s *chanSource) push(slot int, f func()) {
	s.mu.Lock()
	s.qs[slot] = append(s.qs[slot], f)
	s.mu.Unlock()
}

func (s *chanSource) pop(slot int) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.qs[slot]) > 0 {
		f := s.qs[slot][0]
		s.qs[slot] = s.qs[slot][1:]
		return f
	}
	for i := range s.qs {
		if len(s.qs[i]) > 0 {
			f := s.qs[i][0]
			s.qs[i] = s.qs[i][1:]
			return f
		}
	}
	return nil
}

func (s *chanSource) RunSlot(slot, budget int) int {
	n := 0
	for n < budget {
		f := s.pop(slot)
		if f == nil {
			break
		}
		s.ran.Add(1) // before f: tests read ran as soon as the last f signals
		f()
		n++
	}
	return n
}

func TestExecutorRunsAllWork(t *testing.T) {
	e := New(4)
	defer e.Close()
	src := newChanSource(4)
	l := e.Lease("t", 4, src)
	defer l.Close()

	const total = 1000
	var done sync.WaitGroup
	done.Add(total)
	for i := 0; i < total; i++ {
		slot := i % 4
		src.push(slot, func() { done.Done() })
		l.Notify(slot)
	}
	waitDone(t, &done, 5*time.Second, "work did not complete")
	if got := src.ran.Load(); got != total {
		t.Fatalf("ran %d, want %d", got, total)
	}
}

// TestExecutorNoLostWakeup ping-pongs single items with full quiescence in
// between, the pattern most likely to race Notify against a parking worker.
func TestExecutorNoLostWakeup(t *testing.T) {
	e := New(2)
	defer e.Close()
	src := newChanSource(1)
	l := e.Lease("t", 1, src)
	defer l.Close()

	for i := 0; i < 2000; i++ {
		ch := make(chan struct{})
		src.push(0, func() { close(ch) })
		l.Notify(0)
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: item never ran (lost wakeup)", i)
		}
	}
}

// TestExecutorPinnedBeyondBudget queues more work on one slot than a single
// claim's batch budget, behind a single Notify: a pass that ran a full batch
// must leave the lease dirty, or the remainder is stranded until a push that
// may never come.
func TestExecutorPinnedBeyondBudget(t *testing.T) {
	e := New(2)
	defer e.Close()
	src := newChanSource(2)
	l := e.Lease("t", 2, src)
	defer l.Close()
	const total = 3*batchBudget + 1
	var done sync.WaitGroup
	done.Add(total)
	for i := 0; i < total; i++ {
		src.push(1, func() { done.Done() })
	}
	l.Notify(1)
	waitDone(t, &done, 5*time.Second, "work beyond the batch budget was stranded")
}

// TestExecutorLongUnitHidesNoWork pushes one unit that waits for the units
// pushed right behind it: a worker inside a long unit must not leave the
// lease reading clean while the others park.
func TestExecutorLongUnitHidesNoWork(t *testing.T) {
	e := New(8)
	defer e.Close()
	q := NewLanes(8, 1)
	l := q.Lease(e, "t")
	defer l.Close()
	abort := make(chan struct{})
	defer close(abort) // before l.Close: a stranded run must not hang the drain

	const behind = 32
	var ran sync.WaitGroup
	ran.Add(behind)
	allRan, done := make(chan struct{}), make(chan struct{})
	go func() { ran.Wait(); close(allRan) }()
	q.Push(funcUnit(func() {
		select {
		case <-allRan:
			close(done)
		case <-abort:
		}
	}))
	for i := 0; i < behind; i++ {
		q.Push(funcUnit(ran.Done))
	}
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("units queued behind a long unit were stranded")
	}
}

// TestExecutorMultiLeaseCompletion runs many leases concurrently and
// verifies every one finishes, with goroutines bounded by the pool.
func TestExecutorMultiLeaseCompletion(t *testing.T) {
	e := New(4)
	defer e.Close()
	before := runtime.NumGoroutine()

	const leases, perLease = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < leases; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := newChanSource(4)
			l := e.Lease("t", 4, src)
			defer l.Close()
			var done sync.WaitGroup
			done.Add(perLease)
			for j := 0; j < perLease; j++ {
				slot := j % 4
				src.push(slot, func() { done.Done() })
				l.Notify(slot)
			}
			waitDone(t, &done, 10*time.Second, "lease work did not complete")
		}()
	}
	wg.Wait()

	after := runtime.NumGoroutine()
	if after > before+leases {
		t.Fatalf("goroutines grew from %d to %d: not bounded by pool + O(leases)", before, after)
	}
	st := e.Stats()
	if st.Units < leases*perLease {
		t.Fatalf("executor ran %d units, want >= %d", st.Units, leases*perLease)
	}
	if st.Leases != 0 {
		t.Fatalf("leases still registered after close: %d", st.Leases)
	}
}

// TestLeaseCloseDrains verifies that after Close returns the executor
// never calls RunSlot again, even with work still queued.
func TestLeaseCloseDrains(t *testing.T) {
	e := New(2)
	defer e.Close()
	src := newChanSource(2)
	l := e.Lease("t", 2, src)
	for i := 0; i < 100; i++ {
		src.push(i%2, func() { time.Sleep(100 * time.Microsecond) })
		l.Notify(i % 2)
	}
	l.Close()
	ranAtClose := src.ran.Load()
	time.Sleep(50 * time.Millisecond)
	if got := src.ran.Load(); got != ranAtClose {
		t.Fatalf("RunSlot called after Close: %d -> %d", ranAtClose, got)
	}
	l.Close() // idempotent
}

// TestLeaseCloseConcurrent calls Close from two goroutines while a slot
// claim is still inside RunSlot: both callers must be released once the
// claim drains (a single wake token used to release only one of them).
func TestLeaseCloseConcurrent(t *testing.T) {
	e := New(1)
	defer e.Close()
	inRunSlot := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	l := e.Lease("t", 1, funcSource(func(slot, budget int) int {
		once.Do(func() {
			close(inRunSlot)
			<-release
		})
		return 0
	}))
	l.Notify(0)
	<-inRunSlot

	var closers sync.WaitGroup
	closers.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer closers.Done()
			l.Close()
		}()
	}
	// Both closers must be waiting on the drain before the claim returns;
	// Close has no observable "blocked" state, so give them time to get there.
	time.Sleep(50 * time.Millisecond)
	close(release)
	waitDone(t, &closers, 5*time.Second, "a concurrent Lease.Close never returned")
}

// TestExecutorCloseJoinsWorkers verifies Close wakes parked workers and
// joins them.
func TestExecutorCloseJoinsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New(4)
	// Let workers reach their parked state.
	time.Sleep(20 * time.Millisecond)
	e.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("worker goroutines leaked: %d -> %d", before, after)
	}
}

func TestDefaultSingleton(t *testing.T) {
	a, b := Default(), Default()
	if a != b {
		t.Fatal("Default not a singleton")
	}
	if a.Workers() < 1 {
		t.Fatalf("default workers = %d", a.Workers())
	}
}

func waitDone(t *testing.T, wg *sync.WaitGroup, d time.Duration, msg string) {
	t.Helper()
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
	case <-time.After(d):
		t.Fatal(msg)
	}
}
