//go:build !race

package dist

import (
	"testing"

	"dpflow/internal/gep"
)

// TestHotPathAllocs gates the allocations of the per-item data-plane calls:
// one buffer per encoded value and per frame, a staged put costs its key's
// and value's encodings and nothing else, and a staged free costs nothing.
// Excluded from -race builds, which allocate on their own.
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

	// A sender that never wakes during the measurement: a size threshold
	// far above the puts staged.
	opts := patientOpts()
	opts.BatchOps = 1 << 16
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gb := &graphBackend{c: c, prefix: "t/"}
	var handles []uint32
	if n := testing.AllocsPerRun(200, func() {
		h, _ := gb.Put("funcA_outputs", key, true)
		handles = append(handles, h)
	}); n > 2 {
		t.Errorf("Put: %v allocs, want <= 2 (the key's and the value's encodings)", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		gb.Free(handles[len(handles)-1])
		handles = handles[:len(handles)-1]
	}); n != 0 {
		t.Errorf("Free: %v allocs, want 0", n)
	}
}
