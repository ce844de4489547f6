package cnc

import (
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

// BenchmarkPinnedDispatch measures the ComputeOn path: pinned FIFO push,
// targeted wake, owner-only pop.
func BenchmarkPinnedDispatch(b *testing.B) {
	g := NewGraph("bench-pinned", 4)
	tags := NewTagCollection[int](g, "t", false)
	step := NewStepCollection(g, "nop", func(int) error { return nil }).
		WithComputeOn(func(i int) int { return i })
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
