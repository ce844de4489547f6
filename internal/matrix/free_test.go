package matrix

import (
	"math/rand"
	"sync"
	"testing"
)

// recycled releases a dirty rows×cols matrix and takes one of the same
// length back through take, until take returns the released array (the
// free list is a sync.Pool, which may drop an item under the race
// detector or a GC). It reports whether reuse was seen.
func recycled(t *testing.T, rows, cols int, take func() *Dense) (*Dense, bool) {
	t.Helper()
	for range 100 {
		m := New(rows, cols)
		m.Fill(-3.5)
		p := &m.Data()[0]
		m.Release()
		got := take()
		if &got.Data()[0] == p {
			return got, true
		}
	}
	return nil, false
}

// TestNewClearsReleasedArray: New hands out a released array zero-filled.
func TestNewClearsReleasedArray(t *testing.T) {
	m, ok := recycled(t, 7, 9, func() *Dense { return New(7, 9) })
	if !ok {
		t.Fatal("New never took back a released array of its length")
	}
	if m.Rows() != 7 || m.Cols() != 9 || m.Stride() != 9 {
		t.Fatalf("got %dx%d stride %d", m.Rows(), m.Cols(), m.Stride())
	}
	if err := Diff(m, New(7, 9)); err != nil {
		t.Fatalf("recycled array not cleared: %v", err)
	}
}

// TestCloneOfReleasedArrayIsExact: Clone skips the clear, so every element
// must come from the source.
func TestCloneOfReleasedArrayIsExact(t *testing.T) {
	src := New(5, 6)
	src.FillRandom(rand.New(rand.NewSource(1)), -1, 1)
	src.Set(2, 2, 0) // a zero the clone must copy, not inherit
	c, ok := recycled(t, 5, 6, src.Clone)
	if !ok {
		t.Fatal("Clone never took back a released array of its length")
	}
	if err := Diff(c, src); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseOfViewOrEmptyIsNoOp: a view's storage is its root's, and an
// empty matrix has none; neither may reach the free list.
func TestReleaseOfViewOrEmptyIsNoOp(t *testing.T) {
	root := New(4, 4)
	root.Fill(2)
	for _, v := range []*Dense{root.View(0, 0, 4, 4), root.View(2, 2, 2, 2), root.View(1, 0, 2, 4)} {
		v.Release()
		if v.Rows() == 0 {
			t.Fatal("Release emptied a view")
		}
	}
	for range 10 {
		if n := New(4, 4); &n.Data()[0] == &root.Data()[0] {
			t.Fatal("New handed out storage a view released")
		}
	}
	want := New(4, 4)
	want.Fill(2)
	if err := Diff(root, want); err != nil {
		t.Fatalf("root changed by a view's Release: %v", err)
	}
	var zero Dense
	zero.Release()
	New(0, 0).Release()
	New(0, 5).Release()
	m := New(3, 3)
	m.Release()
	m.Release() // a second Release of the emptied matrix does nothing
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("released matrix is %dx%d, want empty", m.Rows(), m.Cols())
	}
}

// TestFreeListConcurrent: workers take, dirty, check and release matrices
// of mixed lengths at once; every New must come back zero-filled, every
// Clone exact, and no two live matrices may share storage.
func TestFreeListConcurrent(t *testing.T) {
	shapes := [][2]int{{3, 3}, {4, 5}, {5, 4}, {16, 16}, {1, 64}, {33, 31}}
	const workers, rounds = 8, 300
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for range rounds {
				s := shapes[rng.Intn(len(shapes))]
				m := New(s[0], s[1])
				for _, v := range m.Data() {
					if v != 0 {
						errs <- "New returned a dirty array"
						return
					}
				}
				m.Fill(float64(w + 1))
				c := m.Clone()
				if !Equal(c, m) {
					errs <- "Clone disagrees with its source"
					return
				}
				for _, v := range m.Data() {
					if v != float64(w+1) {
						errs <- "another goroutine wrote a live matrix"
						return
					}
				}
				m.Release()
				c.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
