package bench

import (
	"errors"
	"strings"
	"testing"
)

// TestRegistryContents pins the registered benchmark set by name: the three
// paper benchmarks plus Cholesky, All() sorted by name, every name resolving
// to itself, carrying a describable CnC spec graph and a wire vocabulary
// whose every item key is a task of its collection.
func TestRegistryContents(t *testing.T) {
	want := []string{"chol", "fw", "ge", "sw"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d benchmarks, want %d: %s", len(all), len(want), NameList())
	}
	for i, b := range all {
		if b.Name() != want[i] {
			t.Fatalf("All()[%d].Name() = %q, want %q", i, b.Name(), want[i])
		}
		got, err := ByName(b.Name())
		if err != nil || got.Name() != b.Name() {
			t.Fatalf("ByName(%q) = %v, %v", b.Name(), got, err)
		}
		g := b.SpecGraph()
		if g == nil || g.Describe() == "" {
			t.Fatalf("%s: empty CnC spec graph", b.Name())
		}
		for _, tiles := range []int{2, 4, 8} {
			b.(interface {
				checkWire(*testing.T, Benchmark, int)
			}).checkWire(t, b, tiles)
		}
	}
	if NameList() != strings.Join(want, ", ") {
		t.Fatalf("NameList() = %q", NameList())
	}
}

// TestByNameUnknownFailsLoudly: a name nobody registered must fail with
// ErrUnknownBenchmark and say what is registered — never default to some
// benchmark. The enum-era aliases ("FW-APSP", "CH") are such names now.
func TestByNameUnknownFailsLoudly(t *testing.T) {
	for _, name := range []string{"nonesuch", "", "FW-APSP", "ch"} {
		_, err := ByName(name)
		if !errors.Is(err, ErrUnknownBenchmark) {
			t.Fatalf("ByName(%q) err = %v, want ErrUnknownBenchmark", name, err)
		}
		if !strings.Contains(err.Error(), NameList()) {
			t.Fatalf("ByName(%q) err = %q, want the registered names %q in it", name, err, NameList())
		}
	}
}

// TestByNameCaseInsensitive: CLIs and job specs may spell a name in any case.
func TestByNameCaseInsensitive(t *testing.T) {
	for _, tc := range [][2]string{{"GE", "ge"}, {"Sw", "sw"}, {"FW", "fw"}, {"CHOL", "chol"}} {
		b, err := ByName(tc[0])
		if err != nil {
			t.Fatalf("ByName(%q): %v", tc[0], err)
		}
		if b.Name() != tc[1] {
			t.Fatalf("ByName(%q).Name() = %q, want %q", tc[0], b.Name(), tc[1])
		}
	}
}

// TestRegisterDuplicatePanics: two benchmarks under one name is a wiring
// bug, refused at init time; the registry is left as it was.
func TestRegisterDuplicatePanics(t *testing.T) {
	ge, err := ByName("ge")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), `"ge"`) {
			t.Fatalf("Register of a duplicate name: recovered %v, want a panic naming it", r)
		}
		if len(All()) != 4 {
			t.Fatalf("registry holds %d benchmarks after the refused Register, want 4", len(All()))
		}
	}()
	Register(ge)
}

// checkWire: the numbering names each item sample's key back, the Flow
// files it in the sample's collection, and every collection is sampled.
func (g taskGraphs[T, K]) checkWire(t *testing.T, b Benchmark, tiles int) {
	f, err := g.flow(tiles)
	if err != nil {
		t.Fatal(err)
	}
	sampled := map[string]bool{}
	for _, it := range b.Wire(tiles).Items {
		k := it.Key.(K)
		c := 0
		if f.Coll != nil {
			c = f.Coll(k)
		}
		if id := f.ID(k); id < 0 || id >= f.N || f.Key(id) != k || f.Colls[c][2] != it.Coll {
			t.Fatalf("%s, %d tiles: item sample %v of %s is not a task of that collection", b.Name(), tiles, k, it.Coll)
		}
		sampled[it.Coll] = true
	}
	if len(sampled) != len(f.Colls) {
		t.Fatalf("%s, %d tiles: %d of %d item collections sampled", b.Name(), tiles, len(sampled), len(f.Colls))
	}
}
