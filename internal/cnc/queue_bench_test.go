package cnc

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkDispatchFanout measures the push/wake path of the work-stealing
// queue end to end: one tag put per op fanning out across 4 workers, with
// the per-op wake bill reported (the seed's broadcast regime implied
// workers wakes per put).
func BenchmarkDispatchFanout(b *testing.B) {
	g := NewGraph("bench-dispatch", 4)
	tags := NewTagCollection[int](g, "t", false)
	step := NewStepCollection(g, "nop", func(int) error { return nil })
	tags.Prescribe(step)
	b.ResetTimer()
	err := g.Run(func() {
		for i := 0; i < b.N; i++ {
			tags.Put(i)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	s := g.Stats()
	b.ReportMetric(float64(s.Wakeups)/float64(b.N), "wakeups/op")
	b.ReportMetric(float64(s.Steals)/float64(b.N), "steals/op")
}

// BenchmarkItemStoreParallel measures concurrent put+get throughput on one
// item collection from 4 goroutines with disjoint keys — the access
// pattern the striped shards exist for (tile puts/gets on different tiles
// must not serialise on one collection lock).
func BenchmarkItemStoreParallel(b *testing.B) {
	g := NewGraph("bench-items", 1)
	items := NewItemCollection[int, int](g, "cells")
	const putters = 4
	err := g.Run(func() {
		var wg sync.WaitGroup
		wg.Add(putters)
		b.ResetTimer()
		for p := 0; p < putters; p++ {
			go func(p int) {
				defer wg.Done()
				for i := p; i < b.N; i += putters {
					items.Put(i, i)
					if _, ok := items.TryGet(i); !ok {
						b.Error("item vanished")
						return
					}
				}
			}(p)
		}
		wg.Wait()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAbortRequeue measures the speculative miss cycle in bulk: b.N
// consumers, each reading three items, are queued ahead of a producer chain
// that puts one item per step, so every consumer aborts, parks and is
// requeued by the puts. One worker makes the schedule — and so the counts —
// deterministic: with the read set declared an instance aborts once and
// waits for all three items; undeclared it parks on one item at a time and
// aborts at each.
func BenchmarkAbortRequeue(b *testing.B) {
	const reads = 3
	for _, declared := range []bool{true, false} {
		name := "undeclared"
		if declared {
			name = "declared"
		}
		b.Run(name, func(b *testing.B) {
			g := NewGraph("bench-abort", 1)
			in := NewItemCollection[int, int](g, "in")
			consume := NewTagCollection[int](g, "consume", false)
			produce := NewTagCollection[int](g, "produce", false)
			cons := NewStepCollection(g, "c", func(i int) error {
				for j := 0; j < reads; j++ {
					in.Get(i + j)
				}
				return nil
			})
			if declared {
				cons.WithGetsAppend(func(i int, ds []Dep) []Dep {
					for j := 0; j < reads; j++ {
						ds = append(ds, in.Key(i+j))
					}
					return ds
				})
			}
			consume.Prescribe(cons)
			last := b.N + reads - 2
			produce.Prescribe(NewStepCollection(g, "p", func(k int) error {
				in.Put(k, k)
				if k < last {
					produce.Put(k + 1) // queued behind the consumers this put just woke
				}
				return nil
			}))
			b.ReportAllocs()
			b.ResetTimer()
			err := g.Run(func() {
				putAll(consume, 0, b.N)
				produce.Put(0)
			})
			if err != nil {
				b.Fatal(err)
			}
			s := g.Stats()
			b.ReportMetric(float64(s.Aborts)/float64(b.N), "aborts/op")
			b.ReportMetric(float64(s.StepsStarted-uint64(last+1))/float64(b.N), "executions/op") // consumers only
		})
	}
}

// throttledShape builds one of the two deferred-put shapes on a limited
// one-worker graph and returns its environment. chain is the dpperf micro
// probe: step i reads item i-1 and puts item i, so each put is deferred on
// its own item and the items land one by one. fanin defers all n tags on one
// item that is put last. Like the probe (and the benchmarks' recursive
// expansions) every put is issued from inside a root step, which keeps the
// one worker busy until all n tags are in — the deferral count is exact.
// gets, when non-nil, is called once per WithGets callback invocation.
func throttledShape(g *Graph, shape string, n int, gets func()) func() {
	items := NewItemCollection[int, bool](g, "items").WithSizeOf(func(int) int { return 2048 })
	tags := NewTagCollection[int](g, "tags", false).WithTagBytes(func(int) int { return 2048 })
	count := func() {
		if gets != nil {
			gets()
		}
	}
	var puts func()
	switch shape {
	case "chain":
		items.WithGetCount(func(int) int { return 1 })
		tags.Prescribe(NewStepCollection(g, "link", func(i int) error {
			items.Get(i - 1)
			if i < n-1 {
				items.Put(i, true)
			}
			return nil
		}).WithGetsAppend(func(i int, ds []Dep) []Dep { count(); return append(ds, items.Key(i-1)) }))
		puts = func() {
			items.Put(-1, true)
			for i := 0; i < n; i++ {
				tags.PutThrottled(i)
			}
		}
	case "fanin":
		items.WithGetCount(func(int) int { return n })
		tags.Prescribe(NewStepCollection(g, "leaf", func(int) error {
			items.Get(0)
			return nil
		}).WithGetsAppend(func(_ int, ds []Dep) []Dep { count(); return append(ds, items.Key(0)) }))
		puts = func() {
			for i := 0; i < n; i++ {
				tags.PutThrottled(i)
			}
			items.Put(0, true)
		}
	default:
		panic("unknown shape " + shape)
	}
	root := NewTagCollection[int](g, "root", false)
	root.Prescribe(NewStepCollection(g, "root", func(int) error { puts(); return nil }))
	return func() { root.Put(0) }
}

// BenchmarkThrottledPut reports the whole life of one deferred throttled put
// — put, wait for its input, admission, dispatch and an empty step — as the
// limited run's wall per BackpressureWait, on a chain and a fan-in of n tags.
// The budget never binds, so this is the price of waiting for inputs alone;
// it must not grow with n.
func BenchmarkThrottledPut(b *testing.B) {
	for _, shape := range []string{"chain", "fanin"} {
		for _, n := range []int{256, 4096} {
			b.Run(fmt.Sprintf("%s/%d", shape, n), func(b *testing.B) {
				var waits int64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g := NewGraph("bench-throttle", 1).WithMemoryLimit(1 << 40)
					if err := g.Run(throttledShape(g, shape, n, nil)); err != nil {
						b.Fatal(err)
					}
					st := g.Stats()
					if st.BackpressureWaits == 0 || st.BackpressureStalls != 0 {
						b.Fatalf("%d waits, %d stalls; want every put deferred and none forced", st.BackpressureWaits, st.BackpressureStalls)
					}
					waits += st.BackpressureWaits
				}
				b.ReportMetric(float64(b.Elapsed())/float64(waits), "ns/deferred-put")
			})
		}
	}
}
