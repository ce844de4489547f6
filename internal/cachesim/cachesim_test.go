package cachesim

import (
	"context"
	"testing"
	"testing/quick"
)

func oneLevel(size, line, ways int) *Hierarchy {
	return New(LevelConfig{Name: "L1", SizeBytes: size, LineBytes: line, Ways: ways})
}

func TestSequentialScanCompulsoryMisses(t *testing.T) {
	h := oneLevel(1<<10, 64, 4)
	const elems = 1024 // 8KB, 128 lines
	for i := 0; i < elems; i++ {
		h.Access(int64(8 * i))
	}
	s := h.Stats()[0]
	if s.Accesses != elems {
		t.Fatalf("accesses = %d", s.Accesses)
	}
	if s.Misses != elems*8/64 {
		t.Fatalf("misses = %d, want %d (one per line)", s.Misses, elems*8/64)
	}
}

func TestWorkingSetFitsSecondPassFree(t *testing.T) {
	h := oneLevel(8<<10, 64, 8)
	const elems = 512 // 4KB < 8KB
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < elems; i++ {
			h.Access(int64(8 * i))
		}
	}
	s := h.Stats()[0]
	if want := uint64(elems * 8 / 64); s.Misses != want {
		t.Fatalf("misses = %d, want %d (second pass all hits)", s.Misses, want)
	}
}

// LRU on a cyclic scan of a working set larger than capacity must miss on
// every line access (the classic LRU worst case).
func TestLRUCyclicThrash(t *testing.T) {
	h := oneLevel(1<<10, 64, 16) // fully associative, 16 lines
	lines := 17                  // one more than capacity
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			h.Access(int64(64 * i))
		}
	}
	s := h.Stats()[0]
	if s.Misses != uint64(3*lines) {
		t.Fatalf("misses = %d, want %d (every access misses)", s.Misses, 3*lines)
	}
}

func TestAssociativityConflicts(t *testing.T) {
	// Direct-mapped: two lines mapping to the same set alternate -> thrash.
	h := oneLevel(1<<10, 64, 1) // 16 sets
	a, b := int64(0), int64(16*64)
	for i := 0; i < 10; i++ {
		h.Access(a)
		h.Access(b)
	}
	if s := h.Stats()[0]; s.Misses != 20 {
		t.Fatalf("direct-mapped conflict misses = %d, want 20", s.Misses)
	}
	// Two-way: both fit in the set, only compulsory misses.
	h2 := oneLevel(1<<10, 64, 2)
	for i := 0; i < 10; i++ {
		h2.Access(a)
		h2.Access(b)
	}
	if s := h2.Stats()[0]; s.Misses != 2 {
		t.Fatalf("2-way conflict misses = %d, want 2", s.Misses)
	}
}

func TestHierarchyProbing(t *testing.T) {
	h := New(
		LevelConfig{Name: "L1", SizeBytes: 512, LineBytes: 64, Ways: 8},
		LevelConfig{Name: "L2", SizeBytes: 4 << 10, LineBytes: 64, Ways: 8},
	)
	// Touch 16 lines (1KB): exceeds L1 (8 lines), fits L2.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 16; i++ {
			h.Access(int64(64 * i))
		}
	}
	s := h.Stats()
	if s[0].Accesses != 32 {
		t.Fatalf("L1 accesses = %d", s[0].Accesses)
	}
	if s[1].Accesses != s[0].Misses {
		t.Fatalf("L2 accesses %d != L1 misses %d", s[1].Accesses, s[0].Misses)
	}
	if s[1].Misses != 16 {
		t.Fatalf("L2 misses = %d, want 16 (compulsory only)", s[1].Misses)
	}
	if s[0].Misses <= 16 {
		t.Fatalf("L1 misses = %d, want > compulsory (capacity thrash)", s[0].Misses)
	}
}

func TestMissRateAndReset(t *testing.T) {
	h := oneLevel(1<<10, 64, 4)
	if r := h.Stats()[0].MissRate(); r != 0 {
		t.Fatalf("empty miss rate = %v", r)
	}
	h.Access(0)
	if r := h.Stats()[0].MissRate(); r != 1 {
		t.Fatalf("miss rate = %v, want 1", r)
	}
	h.Reset()
	s := h.Stats()[0]
	if s.Accesses != 0 || s.Misses != 0 {
		t.Fatal("reset did not clear counters")
	}
	h.Access(0)
	if h.Stats()[0].Misses != 1 {
		t.Fatal("reset did not clear contents")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []LevelConfig{
		{SizeBytes: 0, LineBytes: 64, Ways: 1},
		{SizeBytes: 64, LineBytes: 0, Ways: 1},
		{SizeBytes: 64, LineBytes: 63, Ways: 1},
		{SizeBytes: 64, LineBytes: 64, Ways: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v: expected panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// Property: misses never exceed accesses, and hits are monotone under
// repeated identical access (a re-access of the most recent line always
// hits).
func TestBasicInvariants(t *testing.T) {
	f := func(addrs []uint16) bool {
		h := oneLevel(2<<10, 64, 4)
		for _, a := range addrs {
			h.Access(int64(a))
			h.Access(int64(a)) // immediate re-access must hit
		}
		s := h.Stats()[0]
		return s.Misses <= s.Accesses && s.Misses <= uint64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The Table I mechanism in miniature: trace R-DP GE at n=256 through a
// scaled two-level hierarchy and verify that the per-level misses jump
// when three base blocks stop fitting the level.
func TestTraceRDPGECapacityCliffs(t *testing.T) {
	// The kernel's resident working set is ~2 blocks (the updated block
	// plus the strided column block; the pivot-row block streams).
	// L2 = 16KB holds two blocks of up to 31²·8B -> fits base 16, is
	// marginal at 32, clearly overflows at 64.
	// L3 = 128KB -> fits base 64, overflows at 128.
	mk := func() *Hierarchy {
		return New(
			LevelConfig{Name: "L1", SizeBytes: 2 << 10, LineBytes: 64, Ways: 8},
			LevelConfig{Name: "L2", SizeBytes: 16 << 10, LineBytes: 64, Ways: 8, Hashed: true},
			LevelConfig{Name: "L3", SizeBytes: 128 << 10, LineBytes: 64, Ways: 16, Hashed: true},
		)
	}
	missesAt := func(base int) (l2, l3 uint64) {
		h := mk()
		stats, err := TraceRDPGEContext(context.Background(), h, 256, base)
		if err != nil {
			t.Fatal(err)
		}
		return stats[1].Misses, stats[2].Misses
	}
	l2a, l3a := missesAt(16)
	_, l3b := missesAt(32)
	l2c, l3c := missesAt(64)
	_, l3d := missesAt(128)
	if float64(l2c) < 2*float64(l2a) {
		t.Fatalf("L2 misses should jump when blocks stop fitting: base16=%d base64=%d", l2a, l2c)
	}
	if float64(l3d) < 2*float64(l3c) {
		t.Fatalf("L3 misses should jump when blocks stop fitting: base64=%d base128=%d", l3c, l3d)
	}
	if l3b > l3a*2 {
		t.Fatalf("L3 misses should stay near compulsory while blocks fit: base16=%d base32=%d", l3a, l3b)
	}
}

// Larger base sizes reduce total traffic while everything fits (temporal
// locality of blocking): actual L3 misses must be non-increasing from base
// 16 to 64 at n=256 with the scaled hierarchy above.
func TestBlockingImprovesLocality(t *testing.T) {
	prev := uint64(1 << 62)
	for _, base := range []int{8, 16, 32, 64} {
		h := New(
			LevelConfig{Name: "L1", SizeBytes: 2 << 10, LineBytes: 64, Ways: 8},
			LevelConfig{Name: "L2", SizeBytes: 16 << 10, LineBytes: 64, Ways: 8, Hashed: true},
			LevelConfig{Name: "L3", SizeBytes: 128 << 10, LineBytes: 64, Ways: 16, Hashed: true},
		)
		stats, err := TraceRDPGEContext(context.Background(), h, 256, base)
		if err != nil {
			t.Fatal(err)
		}
		l3 := stats[2].Misses
		if l3 > prev+prev/10 {
			t.Fatalf("L3 misses grew from %d to %d at base %d while blocks fit", prev, l3, base)
		}
		prev = l3
	}
}
