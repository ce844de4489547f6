package cnc

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
)

// Failure injection: steps fail at random points of a large graph; the
// graph must quiesce (never hang), report an error, and stop being usable.
func TestRandomStepFailures(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := NewGraph(fmt.Sprintf("chaos-%d", seed), 4)
		rng := rand.New(rand.NewSource(seed))
		failAt := rng.Intn(200)
		items := NewItemCollection[int, int](g, "it")
		tags := NewTagCollection[int](g, "tg", false)
		var executed atomic.Int64
		step := NewStepCollection(g, "s", func(i int) error {
			executed.Add(1)
			if i == failAt {
				return fmt.Errorf("injected failure at %d", i)
			}
			items.Put(i, i)
			return nil
		})
		tags.Prescribe(step)
		err := g.Run(func() {
			for i := 0; i < 200; i++ {
				tags.Put(i)
			}
		})
		if err == nil || !strings.Contains(err.Error(), "injected failure") {
			t.Fatalf("seed %d: err = %v", seed, err)
		}
		if executed.Load() == 0 {
			t.Fatalf("seed %d: nothing executed", seed)
		}
	}
}

// A producer failing must surface its own error even though the consumers
// it starves end up parked (first error wins over the deadlock report).
func TestProducerFailureBeatsDeadlockReport(t *testing.T) {
	g := NewGraph("pfail", 3)
	items := NewItemCollection[int, int](g, "it")
	prodTags := NewTagCollection[int](g, "pt", false)
	consTags := NewTagCollection[int](g, "ct", false)
	producer := NewStepCollection(g, "p", func(i int) error {
		return errors.New("producer exploded")
	})
	consumer := NewStepCollection(g, "c", func(i int) error {
		items.Get(i) // never produced
		return nil
	})
	prodTags.Prescribe(producer)
	consTags.Prescribe(consumer)
	err := g.Run(func() {
		consTags.Put(1)
		prodTags.Put(1)
	})
	if err == nil || !strings.Contains(err.Error(), "producer exploded") {
		t.Fatalf("err = %v, want the producer's error", err)
	}
}

// Panics inside steps on every worker simultaneously must all be contained.
func TestPanicStorm(t *testing.T) {
	g := NewGraph("storm", 8)
	tags := NewTagCollection[int](g, "tg", false)
	step := NewStepCollection(g, "s", func(i int) error {
		if i%2 == 0 {
			panic(fmt.Sprintf("boom %d", i))
		}
		return nil
	})
	tags.Prescribe(step)
	err := g.Run(func() {
		for i := 0; i < 100; i++ {
			tags.Put(i)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

// Large-scale stress: a 100k-step wavefront through the runtime, checking
// quiescence accounting never wedges.
func TestLargeGraphStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const side = 316 // ~100k steps
	g := NewGraph("stress", 8)
	cells := NewItemCollection[[2]int, int32](g, "cells")
	tags := NewTagCollection[[2]int](g, "tg", true)
	step := NewStepCollection(g, "s", func(t [2]int) error {
		i, j := t[0], t[1]
		var v int32 = 1
		if i > 0 {
			v += cells.Get([2]int{i - 1, j})
		}
		if j > 0 && i == 0 {
			v += cells.Get([2]int{i, j - 1})
		}
		cells.Put(t, v%1000)
		if i+1 < side {
			tags.Put([2]int{i + 1, j})
		}
		if j+1 < side {
			tags.Put([2]int{i, j + 1})
		}
		return nil
	})
	tags.Prescribe(step)
	if err := g.Run(func() { tags.Put([2]int{0, 0}) }); err != nil {
		t.Fatal(err)
	}
	if cells.Len() != side*side {
		t.Fatalf("%d cells, want %d", cells.Len(), side*side)
	}
	s := g.Stats()
	if s.StepsDone != side*side {
		t.Fatalf("StepsDone = %d", s.StepsDone)
	}
}

// tunedPaths enumerates the two ways the one tuned launch rule dispatches
// an instance, for the table-driven failure tests below: its read is
// present when its tag is put (the pre-scheduling check dispatches it from
// the put), or it arrives later (the item's put triggers the dispatch).
// The speculative path is covered by the tests above.
var tunedPaths = []struct {
	name       string
	readsFirst bool
}{
	{"Prescheduled", true},
	{"Triggered", false},
}

// putBoth puts the reads, then the tags, on the prescheduled path, and the
// other way round on the triggered one.
func putBoth(readsFirst bool, tags, reads func()) {
	if readsFirst {
		reads()
		tags()
	} else {
		tags()
		reads()
	}
}

// Injected step failures in tuned instances: a failing body must surface
// its error and the graph must quiesce on either launch path.
func TestTunedStepFailures(t *testing.T) {
	for _, tp := range tunedPaths {
		t.Run(tp.name, func(t *testing.T) {
			g := NewGraph("tuned-fail-"+tp.name, 4)
			in := NewItemCollection[int, int](g, "in")
			out := NewItemCollection[int, int](g, "out")
			tags := NewTagCollection[int](g, "tg", false)
			var executed atomic.Int64
			step := NewStepCollection(g, "s", func(i int) error {
				executed.Add(1)
				v, _ := in.TryGet(i)
				if i == 13 {
					return fmt.Errorf("injected tuned failure at %d", i)
				}
				out.Put(i, v*2)
				return nil
			}).WithTunedGetsAppend(func(i int, ds []Dep) []Dep { return append(ds, in.Key(i)) })
			tags.Prescribe(step)
			err := g.Run(func() {
				putBoth(tp.readsFirst, func() {
					for i := 0; i < 20; i++ {
						tags.Put(i)
					}
				}, func() {
					for i := 0; i < 20; i++ {
						in.Put(i, i)
					}
				})
			})
			if err == nil || !strings.Contains(err.Error(), "injected tuned failure") {
				t.Fatalf("err = %v", err)
			}
			if executed.Load() == 0 {
				t.Fatal("nothing executed")
			}
		})
	}
}

// Injected panics in tuned instances must be contained like errors.
func TestTunedStepPanics(t *testing.T) {
	for _, tp := range tunedPaths {
		t.Run(tp.name, func(t *testing.T) {
			g := NewGraph("tuned-panic-"+tp.name, 4)
			in := NewItemCollection[int, int](g, "in")
			tags := NewTagCollection[int](g, "tg", false)
			step := NewStepCollection(g, "s", func(i int) error {
				if i%4 == 0 {
					panic(fmt.Sprintf("tuned boom %d", i))
				}
				return nil
			}).WithTunedGetsAppend(func(i int, ds []Dep) []Dep { return append(ds, in.Key(i)) })
			tags.Prescribe(step)
			err := g.Run(func() {
				putBoth(tp.readsFirst, func() {
					for i := 0; i < 40; i++ {
						tags.Put(i)
					}
				}, func() {
					for i := 0; i < 40; i++ {
						in.Put(i, i)
					}
				})
			})
			if err == nil || !strings.Contains(err.Error(), "tuned boom") {
				t.Fatalf("err = %v", err)
			}
		})
	}
}

// A retry budget absorbs transient failures in tuned instances too: the
// re-dispatch must not wait on (or re-subscribe to) the already-satisfied
// dependencies.
func TestTunedRetryAbsorbsTransientFailure(t *testing.T) {
	for _, tp := range tunedPaths {
		t.Run(tp.name, func(t *testing.T) {
			g := NewGraph("tuned-retry-"+tp.name, 4)
			g.SetRetry(1)
			in := NewItemCollection[int, int](g, "in")
			tags := NewTagCollection[int](g, "tg", false)
			var attempts atomic.Int64
			step := NewStepCollection(g, "s", func(i int) error {
				if attempts.Add(1) == 1 {
					return errors.New("transient tuned failure")
				}
				return nil
			}).WithTunedGetsAppend(func(i int, ds []Dep) []Dep { return append(ds, in.Key(i)) })
			tags.Prescribe(step)
			if err := g.Run(func() {
				putBoth(tp.readsFirst, func() { tags.Put(5) }, func() { in.Put(5, 50) })
			}); err != nil {
				t.Fatalf("retry did not absorb the tuned failure: %v", err)
			}
			if g.Stats().Retries != 1 {
				t.Fatalf("Retries = %d, want 1", g.Stats().Retries)
			}
		})
	}
}

// Deadlock reporting for tuned instances: an instance whose declared
// dependency never arrives must quiesce into a DeadlockError whose Blocked
// entry names exactly the starved instance and the missing coll[key].
func TestTunedDeadlockBlockedNaming(t *testing.T) {
	for _, tp := range tunedPaths {
		t.Run(tp.name, func(t *testing.T) {
			g := NewGraph("tuned-deadlock-"+tp.name, 2)
			in := NewItemCollection[int, int](g, "in")
			tags := NewTagCollection[int](g, "tg", false)
			step := NewStepCollection(g, "s", func(i int) error {
				return nil
			}).WithTunedGetsAppend(func(i int, ds []Dep) []Dep { return append(ds, in.Key(i)) })
			tags.Prescribe(step)
			err := g.Run(func() {
				putBoth(tp.readsFirst, func() {
					tags.Put(3)
					tags.Put(9)
				}, func() {
					in.Put(3, 30) // tag 9's dependency is never produced
				})
			})
			var dl *DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("err = %v, want DeadlockError", err)
			}
			if len(dl.Blocked) != 1 {
				t.Fatalf("Blocked = %v, want exactly the one starved instance", dl.Blocked)
			}
			if want := "s@9 <- in[9]"; dl.Blocked[0] != want {
				t.Fatalf("Blocked[0] = %q, want %q", dl.Blocked[0], want)
			}
		})
	}
}

// The same precise naming must hold when the starvation is caused by a
// chaos DropTag hook discarding the producer's tag, on either launch path.
func TestTunedDroppedTagDeadlock(t *testing.T) {
	for _, tp := range tunedPaths {
		t.Run(tp.name, func(t *testing.T) {
			g := NewGraph("tuned-drop-"+tp.name, 2)
			g.SetHooks(&Hooks{DropTag: func(coll string, tag any) bool {
				return coll == "pt" && tag == 2
			}})
			items := NewItemCollection[int, int](g, "it")
			prodTags := NewTagCollection[int](g, "pt", false)
			consTags := NewTagCollection[int](g, "ct", false)
			producer := NewStepCollection(g, "p", func(i int) error {
				items.Put(i, i*10)
				return nil
			})
			consumer := NewStepCollection(g, "c", func(i int) error {
				items.TryGet(i)
				return nil
			}).WithTunedGetsAppend(func(i int, ds []Dep) []Dep { return append(ds, items.Key(i)) })
			prodTags.Prescribe(producer)
			consTags.Prescribe(consumer)
			err := g.Run(func() {
				putBoth(tp.readsFirst, func() {
					consTags.Put(1)
					consTags.Put(2)
				}, func() {
					prodTags.Put(1)
					prodTags.Put(2) // dropped by the hook: c@2 starves
				})
			})
			var dl *DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("err = %v, want DeadlockError", err)
			}
			if len(dl.Blocked) != 1 || dl.Blocked[0] != "c@2 <- it[2]" {
				t.Fatalf("Blocked = %v, want [c@2 <- it[2]]", dl.Blocked)
			}
		})
	}
}
