package cnc

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"dpflow/internal/determinacy"
)

// cellGraph builds a graph with one item collection, items, of keys 0..7:
// hashed, or numbered by the key itself; and one step collection prescribed
// by tags.
func cellGraph(numbered bool) (*Graph, *ItemCollection[int, int], *TagCollection[int]) {
	g := NewGraph("cells", 2)
	items := NewItemCollection[int, int](g, "items")
	if numbered {
		NumberKeys(8, func(k int) int { return k }, func(i int) int { return i }, items)
	}
	return g, items, NewTagCollection[int](g, "tags", false)
}

// TestCellContract drives each error and report of the one cell state
// machine through a hashed and a numbered collection: both must fail, or
// report, with the same text.
func TestCellContract(t *testing.T) {
	reads := func(items *ItemCollection[int, int], ks ...int) func(int, []Dep) []Dep {
		return func(_ int, ds []Dep) []Dep {
			for _, k := range ks {
				ds = append(ds, items.Key(k))
			}
			return ds
		}
	}
	cases := []struct {
		name string
		// run drives the graph and returns its error and, when it looks, the
		// wait state it saw.
		run  func(t *testing.T, g *Graph, items *ItemCollection[int, int], tags *TagCollection[int]) (error, []string)
		want string
	}{
		{"double put", func(_ *testing.T, g *Graph, items *ItemCollection[int, int], _ *TagCollection[int]) (error, []string) {
			return g.Run(func() { items.Put(1, 1); items.Put(1, 2) }), nil
		}, "cnc: single-assignment violation: item items[1] put twice"},
		{"put after free", func(_ *testing.T, g *Graph, items *ItemCollection[int, int], _ *TagCollection[int]) (error, []string) {
			items.WithGetCount(func(int) int { return 0 })
			return g.Run(func() { items.Put(1, 1); items.Put(1, 2) }), nil
		}, "re-put after its get-count freed it: cnc: use-after-free: item items[1]"},
		{"over-release", func(_ *testing.T, g *Graph, items *ItemCollection[int, int], tags *TagCollection[int]) (error, []string) {
			items.WithGetCount(func(int) int { return 1 })
			step := NewStepCollection(g, "s", func(int) error { return nil }).WithGetsAppend(reads(items, 1, 1))
			tags.Prescribe(step)
			return g.Run(func() { items.Put(1, 1); tags.Put(0) }), nil
		}, "cnc: over-release of item items[1]"},
		{"release never put", func(_ *testing.T, g *Graph, items *ItemCollection[int, int], _ *TagCollection[int]) (error, []string) {
			items.WithGetCount(func(int) int { return 1 })
			return g.Run(func() { items.Key(2).c.release() }), nil
		}, "cnc: release of item items[2] that was never put"},
		{"negative get-count", func(_ *testing.T, g *Graph, items *ItemCollection[int, int], _ *TagCollection[int]) (error, []string) {
			items.WithGetCount(func(int) int { return -1 })
			return g.Run(func() { items.Put(3, 3) }), nil
		}, "cnc: item items[3] declared negative get-count -1"},
		{"TryGet of a freed cell", func(t *testing.T, g *Graph, items *ItemCollection[int, int], _ *TagCollection[int]) (error, []string) {
			items.WithGetCount(func(int) int { return 0 })
			return g.Run(func() {
				items.Put(4, 4)
				if _, ok := items.TryGet(4); ok {
					t.Error("TryGet of a freed cell reported it present")
				}
			}), nil
		}, "cnc: use-after-free: item items[4] accessed after its get-count reached zero"},
		{"deadlock", func(_ *testing.T, g *Graph, items *ItemCollection[int, int], tags *TagCollection[int]) (error, []string) {
			step := NewStepCollection(g, "s", func(int) error { return nil }).WithTunedGetsAppend(reads(items, 5, 6, 7))
			tags.Prescribe(step)
			err := g.Run(func() { items.Put(6, 6); tags.Put(0) })
			var dl *DeadlockError
			if !errors.As(err, &dl) {
				return err, nil
			}
			return err, dl.Blocked
		}, "s@0 <- items[5]"},
		{"Blocked", func(t *testing.T, g *Graph, items *ItemCollection[int, int], tags *TagCollection[int]) (error, []string) {
			step := NewStepCollection(g, "s", func(int) error { return nil }).WithTunedGetsAppend(reads(items, 5, 6, 7))
			tags.Prescribe(step)
			var blocked []string
			err := g.Run(func() {
				tags.Put(0)
				awaitParked(t, g, 1)
				blocked = g.Blocked()
				for k := 5; k <= 7; k++ {
					items.Put(k, k)
				}
			})
			return err, blocked
		}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var errs [2]string
			var blocked [2][]string
			for i, numbered := range []bool{false, true} {
				g, items, tags := cellGraph(numbered)
				err, b := c.run(t, g, items, tags)
				if err != nil {
					errs[i] = err.Error()
				}
				blocked[i] = b
			}
			if errs[0] != errs[1] {
				t.Fatalf("hashed error %q, numbered error %q", errs[0], errs[1])
			}
			if !strings.Contains(errs[0], c.want) || (c.want == "") != (errs[0] == "") {
				t.Fatalf("error %q, want one containing %q", errs[0], c.want)
			}
			if !reflect.DeepEqual(blocked[0], blocked[1]) {
				t.Fatalf("hashed wait state %q, numbered %q", blocked[0], blocked[1])
			}
			if c.name == "deadlock" || c.name == "Blocked" {
				if want := []string{"s@0 <- items[5]", "s@0 <- items[6]", "s@0 <- items[7]"}; c.name == "deadlock" {
					want = []string{"s@0 <- items[5]", "s@0 <- items[7]"}
					if !reflect.DeepEqual(blocked[0], want) {
						t.Fatalf("deadlock lists %q, want %q", blocked[0], want)
					}
				} else if !reflect.DeepEqual(blocked[0], want) {
					t.Fatalf("Blocked() = %q, want %q", blocked[0], want)
				}
			}
		})
	}
}

// TestCellWordRace races the cell word, on a hashed and on a numbered
// collection, with and without a discipline checker (which sends every
// access through the stripe lock). Each round puts an item of get-count k,
// then k goroutines release it at once, each first probing it, recording
// its read and subscribing to it as the reader it stands for, while
// observers peek at it and ask the admission probe about it until it is
// freed. The count must reach zero exactly once — one free per round, no
// over-release — and a (k+1)-th release must then report the over-release
// in the text the locked path has always used. The checker must have
// recorded every release.
func TestCellWordRace(t *testing.T) {
	const k, observers, rounds = 8, 2, 64
	for _, numbered := range []bool{false, true} {
		for _, checked := range []bool{false, true} {
			t.Run(fmt.Sprintf("numbered=%v/discipline=%v", numbered, checked), func(t *testing.T) {
				g := NewGraph("cell-word", 2)
				items := NewItemCollection[int, int](g, "items")
				if numbered {
					NumberKeys(rounds, func(k int) int { return k }, func(i int) int { return i }, items)
				}
				items.WithGetCount(func(int) int { return k }).WithSizeOf(func(int) int { return 8 })
				dc := determinacy.NewDisciplineChecker()
				if checked {
					g.WithDisciplineCheck(dc)
				}
				failed := func() error {
					g.failMu.Lock()
					defer g.failMu.Unlock()
					return g.err
				}
				err := g.Run(func() {
					for key := range rounds {
						d := items.Key(key)
						items.Put(key, key)
						start, stop := make(chan struct{}), make(chan struct{})
						var wg, watch sync.WaitGroup
						for range k {
							wg.Add(1)
							go func() {
								defer wg.Done()
								<-start
								if s := d.c.probe(); s != cellPresent || d.c.subscribe(nil) {
									t.Errorf("%v: a reader holding a release found it %v", d, s)
								}
								d.c.recordGet()
								d.c.release()
							}()
						}
						for range observers {
							watch.Add(1)
							go func() {
								defer watch.Done()
								<-start
								for {
									select {
									case <-stop:
										return
									default:
									}
									switch s := d.c.peek(); s {
									case cellFreed:
										return
									case cellEmpty:
										t.Errorf("%v: read empty after its put", d)
										return
									}
									if b := d.c.freeableBytes(); b != 0 && b != 8 {
										t.Errorf("%v: freeable %d bytes, want 0 or 8", d, b)
									}
								}
							}()
						}
						close(start)
						wg.Wait()
						close(stop)
						watch.Wait()
						s := g.Stats()
						if err := failed(); err != nil || d.c.peek() != cellFreed || s.ItemsFreed != int64(key+1) || s.LiveItems != 0 {
							t.Fatalf("round %d: error %v, state %v, freed %d, live %d; want no error, the cell freed once a round",
								key, err, d.c.peek(), s.ItemsFreed, s.LiveItems)
						}
					}
					items.Key(0).c.release()
				})
				want := "cnc: over-release of item items[0]: get-count reached zero before its last declared reader (declared count too low)"
				if err == nil || !strings.HasSuffix(err.Error(), want) || !checked && err.Error() != want {
					t.Fatalf("the (k+1)-th release reported %v, want %q", err, want)
				}
				if checked {
					var od *determinacy.OverdrawError
					if st := dc.Stats(); st.Releases != k*rounds || !errors.As(dc.Err(), &od) || len(od.Consumers) != k {
						t.Fatalf("checker recorded %d releases and %v, want %d and an overdraw naming %d consumers",
							st.Releases, dc.Err(), k*rounds, k)
					}
				}
			})
		}
	}
}

// TestNumberedCellsPartitionTheSpace runs two collections sharing one
// numbered key space — even keys in one, odd in the other — through a
// chain of tuned steps each reading one cell of each, beside a hashed
// collection read by the same steps: every read set mixes the two lookups.
// Each key lands in its own collection's cell, and everything is freed.
func TestNumberedCellsPartitionTheSpace(t *testing.T) {
	const n = 64
	g := NewGraph("partition", 2)
	even := NewItemCollection[int, int](g, "even")
	odd := NewItemCollection[int, int](g, "odd")
	NumberKeys(n, func(k int) int { return k }, func(i int) int { return i }, even, odd)
	side := NewItemCollection[int, int](g, "side")
	of := func(k int) *ItemCollection[int, int] {
		if k%2 == 0 {
			return even
		}
		return odd
	}
	for _, ic := range []*ItemCollection[int, int]{even, odd, side} {
		ic.WithGetCount(func(k int) int {
			if k == n-1 {
				return 0
			}
			return 1
		})
	}
	tags := NewTagCollection[int](g, "tags", false)
	step := NewStepCollection(g, "s", func(k int) error {
		if got := of(k-1).Get(k-1) + side.Get(k-1); got != 2*(k-1) {
			return fmt.Errorf("step %d read %d", k, got)
		}
		of(k).Put(k, k)
		side.Put(k, k)
		return nil
	}).WithTunedGetsAppend(func(k int, ds []Dep) []Dep {
		return append(ds, of(k-1).Key(k-1), side.Key(k-1))
	})
	tags.Prescribe(step)
	err := g.Run(func() {
		for k := n - 1; k >= 1; k-- {
			tags.Put(k)
		}
		even.Put(0, 0)
		side.Put(0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := g.Stats(); s.StepsDone != n-1 || s.LiveItems != 0 || even.Puts() != n/2 || odd.Puts() != n/2 {
		t.Fatalf("done %d live %d puts %d/%d, want %d, 0, %d/%d", s.StepsDone, s.LiveItems, even.Puts(), odd.Puts(), n-1, n/2, n/2)
	}
}

// TestNumberKeysRefusesMisuse: a key numbered outside the space, a number
// two collections claim, and a second numbered key space on one graph all
// panic, naming the collection.
func TestNumberKeysRefusesMisuse(t *testing.T) {
	id := func(k int) int { return k }
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Fatalf("%s: recovered %v, want a panic naming %q", what, r, want)
			}
		}()
		f()
	}
	g := NewGraph("misuse", 1)
	a := NewItemCollection[int, int](g, "a")
	b := NewItemCollection[int, int](g, "b")
	NumberKeys(4, id, id, a, b)
	mustPanic("outside", "a[4] is numbered 4, outside", func() { a.Key(4) })
	a.Key(1)
	mustPanic("shared number", "b[1] is numbered 1, the number of an item of a", func() { b.Key(1) })
	c := NewItemCollection[int, int](g, "c")
	mustPanic("second space", "c cannot join", func() { NumberKeys(4, id, id, c) })
}

// TestNumberedSizes pins what the numbered lookup saves: a GE receipt's
// numbered cell drops the key, hash and stripe pointer of a hashed one (its
// number gives all three), and a step instance keeps a numbered read as its
// 4-byte number, not a 16-byte Dep.
func TestNumberedSizes(t *testing.T) {
	if n := unsafe.Sizeof(ncell[tileKey, bool]{}); n != 40 {
		t.Fatalf("ncell[tileKey, bool] is %d bytes, want 40", n)
	}
	if n := unsafe.Sizeof(instance[tag4]{}); n > 112 {
		t.Fatalf("instance[tag4] is %d bytes, want at most 112", n)
	}
}
