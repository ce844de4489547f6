package cnc

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dpflow/internal/exec"
)

// unitFunc adapts a func() to exec.Unit.
type unitFunc func()

func (f unitFunc) Run(int) { f() }

// orderLog records the order steps ran in.
type orderLog struct {
	mu  sync.Mutex
	ran []string
}

func (l *orderLog) add(format string, args ...any) {
	l.mu.Lock()
	l.ran = append(l.ran, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// TestAttemptSuccessorRunsNext: at one worker, a successor that an attempt
// wakes through ItemCollection.PutInto runs right after that attempt, before
// the units the environment enqueued earlier — it lands at the newest end of
// the attempt's own lane, while the environment's puts wait at the oldest.
// The graph's one physical worker is held until the environment has put
// everything, so the lane's contents when the producer runs are fixed.
func TestAttemptSuccessorRunsNext(t *testing.T) {
	ex := exec.New(1)
	defer ex.Close()
	hold := make(chan struct{})
	held := make(chan struct{})
	blocker := exec.NewLanes(1, 1)
	bl := blocker.Lease(ex, "blocker")
	blocker.Push(unitFunc(func() { close(held); <-hold }))
	<-held

	g := NewGraph("successor", 1).WithExecutor(ex)
	data := NewItemCollection[int, int](g, "data")
	var log orderLog
	consTags := NewTagCollection[int](g, "ct", false)
	cons := NewStepCollection(g, "consumer", func(i int) error {
		log.add("consumer")
		return nil
	}).WithTunedGetsAppend(func(i int, ds []Dep) []Dep { return append(ds, data.Key(i)) })
	consTags.Prescribe(cons)
	prodTags := NewTagCollection[int](g, "pt", false)
	prodTags.Prescribe(NewStepCollectionInto(g, "producer", func(i int, bu *Burst) error {
		log.add("producer")
		data.PutInto(i, i, bu)
		return nil
	}))
	otherTags := NewTagCollection[int](g, "ot", false)
	otherTags.Prescribe(NewStepCollection(g, "other", func(i int) error {
		log.add("other%d", i)
		return nil
	}))

	err := g.Run(func() {
		consTags.Put(0) // waits for data[0]
		prodTags.Put(0)
		for i := 1; i <= 3; i++ {
			otherTags.Put(i)
		}
		close(hold)
	})
	bl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"producer", "consumer", "other1", "other2", "other3"}; !slices.Equal(log.ran, want) {
		t.Fatalf("ran %v, want %v", log.ran, want)
	}
}

// TestPollingRePutYields: a step that polls with TryGet and re-puts its own
// tag on a miss, with its producer queued behind it, terminates with the
// right result. At one worker a root step enqueues the producer and spawns
// the poller through its burst, so the poller runs first. Its re-put is
// enqueued at the oldest end, behind the producer; were it spawned at the
// newest end, one worker would re-pop the poller forever, which the poll
// budget turns into a failure. At two workers the root holds its worker
// until the poller is done and puts both plainly: the one free worker runs
// every poll and the producer, each enqueue round-robin over both lanes, so
// it must steal from the held worker's lane. Holding the worker keeps the
// count a property of dispatch order alone — were the other worker free,
// the OS could preempt it mid-producer while the poller spends its budget.
// The graph has its own executor with one physical worker per lane, so the
// held one never starves the other, whatever GOMAXPROCS is.
func TestPollingRePutYields(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const budget = 1000
			ex := exec.New(workers)
			defer ex.Close()
			g := NewGraph("poll", workers).WithExecutor(ex)
			in := NewItemCollection[int, int](g, "in")
			out := NewItemCollection[int, int](g, "out")
			pollTags := NewTagCollection[int](g, "poll", false)
			polls := 0 // one poller instance runs at a time
			done := make(chan struct{})
			pollTags.Prescribe(NewStepCollection(g, "poller", func(i int) error {
				v, ok := in.TryGet(i)
				if !ok {
					if polls++; polls > budget {
						close(done)
						return fmt.Errorf("poller re-ran %d times without its producer running", polls)
					}
					pollTags.Put(i)
					return nil
				}
				out.Put(i, v+1)
				close(done)
				return nil
			}))
			prodTags := NewTagCollection[int](g, "prod", false)
			prodTags.Prescribe(NewStepCollection(g, "producer", func(i int) error {
				in.Put(i, 41)
				return nil
			}))
			rootTags := NewTagCollection[int](g, "root", false)
			rootTags.Prescribe(NewStepCollectionInto(g, "root", func(i int, bu *Burst) error {
				prodTags.Put(i)
				if workers == 1 {
					pollTags.PutInto(i, bu)
					return nil
				}
				pollTags.Put(i)
				<-done
				return nil
			}))
			err := g.Run(func() { rootTags.Put(7) })
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := out.TryGet(7); !ok || v != 42 {
				t.Fatalf("out[7] = %d, %v; want 42, true", v, ok)
			}
		})
	}
}

// TestAttemptBurstHoldsGraphOpen: an attempt's staged dispatches take no
// outstanding-work hold of their own — the attempt's unit holds the graph
// open until its flush counts them — so the graph never quiesces before
// every staged unit has run, however the other lanes' units retire while
// they are staged. The stager enqueues the other units itself, after
// staging, and waits until they have all retired, so its own unit is all
// that holds the graph open when it returns. Each staged unit stages one
// more or none, covering the flushes of n > 1, n = 1 and n = 0 units.
func TestAttemptBurstHoldsGraphOpen(t *testing.T) {
	const staged, others = 64, 32
	ex := exec.New(8)
	defer ex.Close()
	g := NewGraph("burst-hold", 8).WithExecutor(ex)
	var ran, noise atomic.Int64
	root := NewTagCollection[int](g, "root", false)
	kids := NewTagCollection[int](g, "kids", false)
	other := NewTagCollection[int](g, "other", false)
	root.Prescribe(NewStepCollectionInto(g, "stage", func(_ int, bu *Burst) error {
		for i := range staged {
			kids.PutInto(i, bu)
		}
		for i := range others {
			other.Put(i)
		}
		for noise.Load() < others {
			runtime.Gosched()
		}
		return nil
	}))
	kids.Prescribe(NewStepCollectionInto(g, "kid", func(i int, bu *Burst) error {
		ran.Add(1)
		if i < staged/2 {
			kids.PutInto(staged+i, bu)
		}
		return nil
	}))
	other.Prescribe(NewStepCollection(g, "other", func(int) error {
		noise.Add(1)
		return nil
	}))
	if err := g.Run(func() { root.Put(0) }); err != nil {
		t.Fatal(err)
	}
	if got, want := ran.Load(), int64(staged+staged/2); got != want {
		t.Fatalf("Run returned with %d staged units run, want %d", got, want)
	}
	if s := g.Stats(); s.StepsDone != 1+staged+staged/2+others || g.outstanding.Load() != 0 {
		t.Fatalf("StepsDone %d, outstanding %d; want %d and 0", s.StepsDone, g.outstanding.Load(), 1+staged+staged/2+others)
	}
}
