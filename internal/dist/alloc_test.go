//go:build !race

package dist

import (
	"testing"

	"dpflow/internal/gep"
)

// TestHotPathAllocs gates the allocations of the per-item data-plane calls:
// one buffer per encoded value and per frame, none for a get the object
// cache serves. Excluded from -race builds, which allocate on their own.
func TestHotPathAllocs(t *testing.T) {
	var key any = gep.ItemKey{I: 3, J: 70, K: 5}
	kb, err := EncodeValue(key)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := EncodeValue(true)
	if err != nil {
		t.Fatal(err)
	}
	msg := PutMsg{Coll: "g1/funcA_outputs", Key: kb, Val: vb}
	if n := testing.AllocsPerRun(200, func() { _, _ = EncodeValue(key) }); n > 1 {
		t.Errorf("EncodeValue(key): %v allocs, want <= 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = EncodeFrame(MsgPut, 1, msg) }); n > 1 {
		t.Errorf("EncodeFrame(MsgPut): %v allocs, want <= 1", n)
	}

	opts := fastOpts()
	opts.VerifySample = -1
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gb := &graphBackend{c: c, prefix: "t/"}
	if err := gb.Put("funcA_outputs", key, true); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = gb.Get("funcA_outputs", key) }); n != 0 {
		t.Errorf("object-cache-hit Get: %v allocs, want 0", n)
	}
}
