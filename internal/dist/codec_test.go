package dist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/gep"
)

// TestValueRoundTripAllBenchmarks sweeps every registered benchmark's wire
// vocabulary — tags and (collection, key, value) samples: the zero-value
// tag, the root, the flat walk's first and last tags and every collection's
// first and last key — through
// EncodeValue/DecodeValue, and checks encoding is deterministic (the
// property the shard map and byte-equal idempotent replay rely on).
func TestValueRoundTripAllBenchmarks(t *testing.T) {
	benches := bench.All()
	if len(benches) == 0 {
		t.Fatal("no registered benchmarks")
	}
	for _, b := range benches {
		w := b.Wire(4)
		if len(w.Tags) == 0 || len(w.Items) == 0 {
			t.Fatalf("%s: Wire vocabulary empty (tags %d, items %d)", b.Name(), len(w.Tags), len(w.Items))
		}
		var vals []any
		vals = append(vals, w.Tags...)
		for _, it := range w.Items {
			vals = append(vals, it.Key, it.Val)
		}
		for i, v := range vals {
			name := fmt.Sprintf("%s/%d:%T", b.Name(), i, v)
			enc1, err := EncodeValue(v)
			if err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			enc2, err := EncodeValue(v)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", name, err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("%s: encoding not deterministic (%d vs %d bytes)", name, len(enc1), len(enc2))
			}
			dec, err := DecodeValue(enc1)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if !reflect.DeepEqual(dec, v) {
				t.Fatalf("%s: round trip %#v -> %#v", name, v, dec)
			}
		}
	}
}

// TestFrameRoundTrip pushes each message type through EncodeFrame/ReadFrame.
func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		mt      byte
		seq     uint64
		payload any
	}{
		{MsgPut, 1, PutMsg{Coll: "g1/tile_outputs", Key: []byte{1, 2}, Val: []byte{3}}},
		{MsgAck, 3, AckMsg{}},
		{MsgAck, 4, AckMsg{Err: "write-once violation"}},
		{MsgPing, 6, nil},
		{MsgPong, 7, PongMsg{Stored: 17}},
		{MsgPutBatch, 8, PutBatchMsg{Ops: []PutMsg{
			{Coll: "g1/a", Key: []byte{1}, Val: []byte{2}},
			{Coll: "g1/b", Key: []byte{3, 4}, Val: []byte{}},
		}}},
		{MsgGetBatch, 9, GetBatchMsg{Gets: []GetMsg{{Coll: "g1/a", Key: []byte{1}}}}},
		{MsgItemBatch, 10, ItemBatchMsg{Items: []ItemMsg{{Found: true, Val: []byte{2}}, {Found: false}}}},
	}
	var stream bytes.Buffer
	wires := make([]int, len(cases))
	for i, tc := range cases {
		frame, err := EncodeFrame(tc.mt, tc.seq, tc.payload)
		if err != nil {
			t.Fatalf("%s: encode: %v", MsgName(tc.mt), err)
		}
		wires[i] = len(frame)
		stream.Write(frame)
	}
	for i, tc := range cases {
		mt, seq, pl, wire, err := ReadFrame(&stream)
		if err != nil {
			t.Fatalf("%s: read: %v", MsgName(tc.mt), err)
		}
		if mt != tc.mt || seq != tc.seq {
			t.Fatalf("frame header (%s, %d), want (%s, %d)", MsgName(mt), seq, MsgName(tc.mt), tc.seq)
		}
		if wire != wires[i] {
			t.Fatalf("%s: ReadFrame wire size %d, want the %d bytes EncodeFrame produced", MsgName(mt), wire, wires[i])
		}
		switch tc.mt {
		case MsgPut:
			var m PutMsg
			if err := DecodePayload(pl, &m); err != nil {
				t.Fatalf("decode put: %v", err)
			}
			want := tc.payload.(PutMsg)
			if m.Coll != want.Coll || !bytes.Equal(m.Key, want.Key) || !bytes.Equal(m.Val, want.Val) {
				t.Fatalf("put round trip %+v -> %+v", want, m)
			}
			// Parsed byte fields alias the payload, they are not copies.
			if pl[len(pl)-1]++; m.Val[0] != want.Val[0]+1 {
				t.Fatal("parsed Val does not alias the frame buffer")
			}
		case MsgPutBatch:
			var m PutBatchMsg
			if err := DecodePayload(pl, &m); err != nil {
				t.Fatalf("decode putbatch: %v", err)
			}
			want := tc.payload.(PutBatchMsg)
			if len(m.Ops) != len(want.Ops) {
				t.Fatalf("putbatch round trip %d ops, want %d", len(m.Ops), len(want.Ops))
			}
			for j := range want.Ops {
				if m.Ops[j].Coll != want.Ops[j].Coll || !bytes.Equal(m.Ops[j].Key, want.Ops[j].Key) || !bytes.Equal(m.Ops[j].Val, want.Ops[j].Val) {
					t.Fatalf("putbatch op %d round trip %+v -> %+v", j, want.Ops[j], m.Ops[j])
				}
			}
		case MsgPong:
			var m PongMsg
			if err := DecodePayload(pl, &m); err != nil {
				t.Fatalf("decode pong: %v", err)
			}
			if m.Stored != tc.payload.(PongMsg).Stored {
				t.Fatalf("pong round trip %+v -> %+v", tc.payload, m)
			}
		case MsgPing:
			if len(pl) != 0 {
				t.Fatalf("ping payload %d bytes, want 0", len(pl))
			}
		}
	}
}

// TestPutBatchRoundTripAllBenchmarks sweeps every registered benchmark's
// wire vocabulary through MsgPutBatch frames — the empty batch, every
// single-entry batch, and the full-vocabulary batch — checking each op's
// bytes survive the frame intact and that a worker Store fed the decoded
// batch serves exactly what went in. This is the batch analogue of
// TestValueRoundTripAllBenchmarks: the batched data plane must be able to
// carry anything the per-item plane could.
func TestPutBatchRoundTripAllBenchmarks(t *testing.T) {
	benches := bench.All()
	if len(benches) == 0 {
		t.Fatal("no registered benchmarks")
	}
	roundTrip := func(t *testing.T, ops []PutMsg, seq uint64) PutBatchMsg {
		frame, err := EncodeFrame(MsgPutBatch, seq, PutBatchMsg{Ops: ops})
		if err != nil {
			t.Fatalf("encode batch of %d: %v", len(ops), err)
		}
		mt, rseq, pl, wire, err := ReadFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("read batch of %d: %v", len(ops), err)
		}
		if mt != MsgPutBatch || rseq != seq || wire != len(frame) {
			t.Fatalf("batch header (%s, %d, wire %d), want (putbatch, %d, %d)", MsgName(mt), rseq, wire, seq, len(frame))
		}
		var m PutBatchMsg
		if err := DecodePayload(pl, &m); err != nil {
			t.Fatalf("decode batch of %d: %v", len(ops), err)
		}
		if len(m.Ops) != len(ops) {
			t.Fatalf("batch round trip %d ops, want %d", len(m.Ops), len(ops))
		}
		for i := range ops {
			if m.Ops[i].Coll != ops[i].Coll || !bytes.Equal(m.Ops[i].Key, ops[i].Key) || !bytes.Equal(m.Ops[i].Val, ops[i].Val) {
				t.Fatalf("batch op %d round trip %+v -> %+v", i, ops[i], m.Ops[i])
			}
		}
		return m
	}
	// The empty batch (a flush that lost the race with another flusher)
	// must be representable, not a protocol error.
	roundTrip(t, nil, 1)
	for _, b := range benches {
		w := b.Wire(4)
		var ops []PutMsg
		for i, it := range w.Items {
			kb, err := EncodeValue(it.Key)
			if err != nil {
				t.Fatalf("%s: encode key: %v", b.Name(), err)
			}
			vb, err := EncodeValue(it.Val)
			if err != nil {
				t.Fatalf("%s: encode val: %v", b.Name(), err)
			}
			// Distinct keys per op: vocabulary entries may repeat a
			// collection, and the Store check below needs one slot each.
			ops = append(ops, PutMsg{Coll: fmt.Sprintf("g1/%s/%d", it.Coll, i), Key: kb, Val: vb})
		}
		if len(ops) == 0 {
			t.Fatalf("%s: empty wire vocabulary", b.Name())
		}
		for i := range ops {
			roundTrip(t, ops[i:i+1], uint64(i)+2) // single-entry batches
		}
		m := roundTrip(t, ops, 99)
		store := NewStore()
		for _, op := range m.Ops {
			if err := store.Put(op.Coll, op.Key, op.Val); err != nil {
				t.Fatalf("%s: store refused decoded batch op: %v", b.Name(), err)
			}
		}
		for _, op := range ops {
			got, ok := store.Get(op.Coll, op.Key)
			if !ok || !bytes.Equal(got, op.Val) {
				t.Fatalf("%s: store serves %d bytes for %s, want the %d put via batch", b.Name(), len(got), op.Coll, len(op.Val))
			}
		}
	}
}

// TestShardOfDeterministicAndInRange: the shard map is a pure function of
// (collection, key bytes) with results in [0, shards), and the NUL
// separator keeps ambiguous concatenations apart.
func TestShardOfDeterministicAndInRange(t *testing.T) {
	for _, b := range bench.All() {
		for _, it := range b.Wire(4).Items {
			kb, err := EncodeValue(it.Key)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 2, 3, 8} {
				s1 := ShardOf(it.Coll, kb, n)
				s2 := ShardOf(it.Coll, kb, n)
				if s1 != s2 {
					t.Fatalf("%s: shard map not deterministic (%d vs %d)", it.Coll, s1, s2)
				}
				if s1 < 0 || s1 >= n {
					t.Fatalf("%s: shard %d out of range [0,%d)", it.Coll, s1, n)
				}
			}
		}
	}
	if storeKey("ab", []byte("c")) == storeKey("a", []byte("bc")) {
		t.Fatal("store keys collide across the coll/key boundary")
	}
}

// TestStoreWriteOnce: byte-identical duplicate puts are accepted (replay
// idempotence), differing duplicates refused (write-once).
func TestStoreWriteOnce(t *testing.T) {
	s := NewStore()
	if err := s.Put("c", []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("c", []byte("k"), []byte("v1")); err != nil {
		t.Fatalf("idempotent replay refused: %v", err)
	}
	if err := s.Put("c", []byte("k"), []byte("v2")); err == nil {
		t.Fatal("differing duplicate put accepted")
	}
	if v, ok := s.Get("c", []byte("k")); !ok || string(v) != "v1" {
		t.Fatalf("Get = (%q, %v), want (v1, true)", v, ok)
	}
	if _, ok := s.Get("c", []byte("missing")); ok {
		t.Fatal("Get of missing key reported found")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// vocabulary returns every registered benchmark's wire samples (tags, keys
// and values), labelled for failure messages.
func vocabulary(t testing.TB) (labels []string, vals []any) {
	t.Helper()
	for _, b := range bench.All() {
		w := b.Wire(4)
		add := func(v any) {
			labels = append(labels, fmt.Sprintf("%s/%d:%T", b.Name(), len(vals), v))
			vals = append(vals, v)
		}
		for _, tag := range w.Tags {
			add(tag)
		}
		for _, it := range w.Items {
			add(it.Key)
			add(it.Val)
		}
	}
	if len(vals) == 0 {
		t.Fatal("no registered wire vocabulary")
	}
	return labels, vals
}

// extremes are the int field values at the varint edge cases: -1, the ends
// of the int range and either side of the one-byte boundary.
var extremes = []int64{-1, math.MinInt64, math.MaxInt64, 63, 64, -64, -65}

// allFields is the value of struct type rt with every int field set to x.
func allFields(rt reflect.Type, x int64) any {
	pv := reflect.New(rt).Elem()
	for f := 0; f < pv.NumField(); f++ {
		pv.Field(f).SetInt(x)
	}
	return pv.Interface()
}

// TestValueRoundTripExtremes: every vocabulary type round-trips with each
// of its int fields at -1 and at the ends of the int range — the varint
// edge cases gob used to cover for free.
func TestValueRoundTripExtremes(t *testing.T) {
	labels, vals := vocabulary(t)
	for i, v := range vals {
		rt := reflect.TypeOf(v)
		if rt.Kind() != reflect.Struct {
			continue
		}
		for _, x := range extremes {
			want := allFields(rt, x)
			enc, err := EncodeValue(want)
			if err != nil {
				t.Fatalf("%s fields=%d: encode: %v", labels[i], x, err)
			}
			got, err := DecodeValue(enc)
			if err != nil {
				t.Fatalf("%s fields=%d: decode: %v", labels[i], x, err)
			}
			if got != want {
				t.Fatalf("%s: round trip %#v -> %#v", labels[i], want, got)
			}
		}
	}
}

// TestEncodeValuePureAndInjective: the same value encodes to the same bytes
// on every call and from every goroutine, and values of different types
// never share an encoding even when all their fields agree — otherwise
// ShardOf and the worker store key could collide across collections that
// differ only in key type.
func TestEncodeValuePureAndInjective(t *testing.T) {
	labels, vals := vocabulary(t)
	want := make([][]byte, len(vals))
	for i, v := range vals {
		var err error
		if want[i], err = EncodeValue(v); err != nil {
			t.Fatalf("%s: %v", labels[i], err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				for i, v := range vals {
					got, err := EncodeValue(v)
					if err != nil || !bytes.Equal(got, want[i]) {
						t.Errorf("%s: re-encode gave %x (err %v), want %x", labels[i], got, err, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// One zero value per distinct type: all fields equal, all bytes distinct.
	seen := map[string]reflect.Type{}
	for _, v := range vals {
		rt := reflect.TypeOf(v)
		enc, err := EncodeValue(reflect.Zero(rt).Interface())
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[string(enc)]; dup && prev != rt {
			t.Fatalf("zero values of %s and %s both encode to %x", prev, rt, enc)
		}
		seen[string(enc)] = rt
	}
	if len(seen) < 4 {
		t.Fatalf("only %d distinct vocabulary types — the injectivity check is vacuous", len(seen))
	}
}

// TestGoldenBytes pins the wire layout of one key, one value and one
// MsgPutBatch frame. Type ids follow registration order (bench.All() sorted
// by name, each benchmark's tags, then keys and values), so registering a
// benchmark that sorts before "ge" legitimately moves them: re-pin then.
func TestGoldenBytes(t *testing.T) {
	key, err := EncodeValue(gep.ItemKey{I: 1, J: -2, K: 300})
	if err != nil {
		t.Fatal(err)
	}
	// id 5, zigzag(1)=2, zigzag(-2)=3, zigzag(300)=600 as a two-byte uvarint.
	if want := []byte{0x05, 0x02, 0x03, 0xd8, 0x04}; !bytes.Equal(key, want) {
		t.Fatalf("gep.ItemKey{1,-2,300} = %x, want %x", key, want)
	}
	val, err := EncodeValue(true)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{0x03, 0x01}; !bytes.Equal(val, want) {
		t.Fatalf("true = %x, want %x", val, want)
	}
	frame, err := EncodeFrame(MsgPutBatch, 0x0102, PutBatchMsg{Ops: []PutMsg{
		{Coll: "g1/a", Key: key, Val: val},
		{Coll: "", Key: nil, Val: []byte{}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0, 0, 0, 27, // length of everything below
		MsgPutBatch,
		0, 0, 0, 0, 0, 0, 0x01, 0x02, // seq
		2,                     // ops
		4, 'g', '1', '/', 'a', // op 0: Coll
		5, 0x05, 0x02, 0x03, 0xd8, 0x04, // Key
		2, 0x03, 0x01, // Val
		0, 0, 0, // op 1: three empty fields
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("putbatch frame\n got %x\nwant %x", frame, want)
	}
}

// TestWireKinds drives the codec over every kind it carries — beyond the
// int structs and bools the benchmarks use today — and checks the exact
// size prediction that makes each encode a single allocation.
func TestWireKinds(t *testing.T) {
	type inner struct {
		U8  uint8
		F32 float32
	}
	type all struct {
		B    bool
		I    int
		I8   int8
		U    uint64
		F    float64
		S    string
		Raw  []byte
		Ints []int32
		In   []inner
	}
	want := all{B: true, I: -7, I8: -128, U: math.MaxUint64, F: -0.5, S: "tile",
		Raw: []byte{0, 255}, Ints: []int32{1, -1, math.MaxInt32}, In: []inner{{U8: 255, F32: 1.5}, {}}}
	if err := checkWire(reflect.TypeOf(want)); err != nil {
		t.Fatal(err)
	}
	enc := appendWire(nil, reflect.ValueOf(want))
	if n := wireSize(reflect.ValueOf(want)); n != len(enc) {
		t.Fatalf("wireSize %d, appendWire wrote %d", n, len(enc))
	}
	var got all
	p := parser{b: enc}
	parseWire(&p, reflect.ValueOf(&got).Elem())
	if err := p.finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip\n got %+v\nwant %+v", got, want)
	}
	// An int8 field fed a value outside its range is malformed, not wrapped.
	var small struct{ I8 int8 }
	p = parser{b: appendWire(nil, reflect.ValueOf(struct{ I int }{I: 200}))}
	parseWire(&p, reflect.ValueOf(&small).Elem())
	if p.finish() == nil {
		t.Fatal("int8 accepted 200")
	}

	for _, bad := range []any{
		map[string]int{}, new(int), []any{}, make(chan int), struct{}{}, []struct{}{},
		struct{ hidden int }{}, struct{ P *int }{}, [2]int{}, nil,
	} {
		if err := checkWire(reflect.TypeOf(bad)); !errors.Is(err, ErrWireType) {
			t.Errorf("checkWire(%T) = %v, want ErrWireType", bad, err)
		}
	}
	if _, err := EncodeValue("not in any vocabulary"); !errors.Is(err, ErrWireType) {
		t.Fatalf("EncodeValue of an unregistered type: %v, want ErrWireType", err)
	}
}

// TestEncodeFrameTooLarge: a body over maxFrame is the named sender-side
// error, and the largest legal body still encodes and reads back.
func TestEncodeFrameTooLarge(t *testing.T) {
	big := make([]byte, maxFrame)
	if _, err := EncodeFrame(MsgPut, 1, PutMsg{Coll: "c", Val: big}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized put frame: %v, want ErrFrameTooLarge", err)
	}
	// 9 header bytes, "c" and the empty key with their prefixes, Val's 4-byte prefix.
	fits := big[:maxFrame-9-2-1-4]
	frame, err := EncodeFrame(MsgPut, 1, PutMsg{Coll: "c", Val: fits})
	if err != nil {
		t.Fatalf("largest legal frame refused: %v", err)
	}
	if _, _, pl, _, err := ReadFrame(bytes.NewReader(frame)); err != nil || len(pl) != maxFrame-9 {
		t.Fatalf("largest legal frame reads back %d payload bytes, err %v", len(pl), err)
	}
	if _, err := EncodeFrame(MsgPut, 1, struct{ X int }{}); err == nil {
		t.Fatal("EncodeFrame accepted a payload that is no message struct")
	}
}

// messageFor returns a fresh pointer to the message struct mt carries.
func messageFor(mt byte) any {
	switch mt {
	case MsgPut:
		return new(PutMsg)
	case MsgAck:
		return new(AckMsg)
	case MsgPong:
		return new(PongMsg)
	case MsgPutBatch:
		return new(PutBatchMsg)
	case MsgGetBatch:
		return new(GetBatchMsg)
	case MsgItemBatch:
		return new(ItemBatchMsg)
	}
	return nil
}

// FuzzDecodePayload: truncated or garbage payloads never panic the parser
// and never make it allocate for more batch elements than the bytes could
// hold; whatever does parse survives a re-encode.
func FuzzDecodePayload(f *testing.F) {
	seeds := []struct {
		mt byte
		m  any
	}{
		{MsgPut, PutMsg{Coll: "g1/a", Key: []byte{1, 2}, Val: []byte{3}}},
		{MsgGetBatch, GetBatchMsg{Gets: []GetMsg{{Coll: "g1/a", Key: []byte{1}}}}},
		{MsgAck, AckMsg{Err: "write-once violation"}},
		{MsgItemBatch, ItemBatchMsg{Items: []ItemMsg{{Found: true, Val: []byte{9}}}}},
		{MsgPong, PongMsg{Stored: 1 << 40}},
		{MsgPutBatch, PutBatchMsg{Ops: []PutMsg{{Coll: "a", Key: []byte{1}, Val: []byte{2}}, {}}}},
		{MsgGetBatch, GetBatchMsg{Gets: []GetMsg{{Coll: "a"}, {Key: []byte{7}}}}},
		{MsgItemBatch, ItemBatchMsg{Items: []ItemMsg{{Found: true}, {Err: "x"}}}},
	}
	for _, s := range seeds {
		frame, err := EncodeFrame(s.mt, 1, s.m)
		if err != nil {
			f.Fatal(err)
		}
		body := frame[prefixLen:]
		f.Add(s.mt, body)
		f.Add(s.mt, body[:len(body)/2])
	}
	f.Add(MsgPutBatch, []byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // four billion ops, no bytes
	f.Add(MsgItemBatch, []byte{1, 2, 0, 0})                  // a bool that is neither 0 nor 1
	f.Fuzz(func(t *testing.T, mt byte, payload []byte) {
		m := messageFor(mt)
		if m == nil {
			return
		}
		if err := DecodePayload(payload, m); err != nil {
			return
		}
		elems, min := 0, 1
		switch b := m.(type) {
		case *PutBatchMsg:
			elems, min = len(b.Ops), minWireSize(reflect.TypeOf(PutMsg{}))
		case *GetBatchMsg:
			elems, min = len(b.Gets), minWireSize(reflect.TypeOf(GetMsg{}))
		case *ItemBatchMsg:
			elems, min = len(b.Items), minWireSize(reflect.TypeOf(ItemMsg{}))
		}
		if elems*min > len(payload) {
			t.Fatalf("%s: %d elements parsed out of %d bytes", MsgName(mt), elems, len(payload))
		}
		frame, err := EncodeFrame(mt, 1, reflect.ValueOf(m).Elem().Interface())
		if err != nil {
			t.Fatalf("%s: re-encode: %v", MsgName(mt), err)
		}
		again := messageFor(mt)
		if err := DecodePayload(frame[prefixLen:], again); err != nil || !reflect.DeepEqual(m, again) {
			t.Fatalf("%s: %+v re-encodes to %+v (err %v)", MsgName(mt), m, again, err)
		}
	})
}

// FuzzDecodeValue: garbage never panics DecodeValue, and anything it
// accepts is a registered value that round-trips. The seeds are every
// vocabulary value whole, cut short and overlong, then every vocabulary
// struct type with its fields at each of the extremes.
func FuzzDecodeValue(f *testing.F) {
	_, vals := vocabulary(f)
	for _, v := range vals {
		enc, err := EncodeValue(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(append(enc, 0))
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	seen := map[reflect.Type]bool{}
	for _, v := range vals {
		rt := reflect.TypeOf(v)
		if rt.Kind() != reflect.Struct || seen[rt] {
			continue
		}
		seen[rt] = true
		for _, x := range extremes {
			enc, err := EncodeValue(allFields(rt, x))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := DecodeValue(b)
		if err != nil {
			return
		}
		enc, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("decoded %#v does not encode: %v", v, err)
		}
		if back, err := DecodeValue(enc); err != nil || back != v {
			t.Fatalf("%#v re-encodes to %#v (err %v)", v, back, err)
		}
	})
}

// TestWorkerDropsPutFrame: puts reach a worker only in MsgPutBatch frames,
// so a single MsgPut is a corrupt stream, like any type no coordinator
// sends. The worker answers a ping on the connection, then drops it at the
// MsgPut frame without acking or storing the put.
func TestWorkerDropsPutFrame(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	store := NewStore()
	go serveConn(server, store)
	if err := client.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	send := func(mt byte, seq uint64, msg any) {
		t.Helper()
		frame, err := EncodeFrame(mt, seq, msg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Write(frame); err != nil {
			t.Fatalf("write %s: %v", MsgName(mt), err)
		}
	}
	send(MsgPing, 1, nil)
	if mt, seq, _, _, err := ReadFrame(client); err != nil || mt != MsgPong || seq != 1 {
		t.Fatalf("ping answered by %s seq %d, err %v; want pong 1", MsgName(mt), seq, err)
	}
	send(MsgPut, 2, PutMsg{Coll: "c", Key: []byte{1}, Val: []byte{2}})
	if mt, _, _, _, err := ReadFrame(client); !errors.Is(err, io.EOF) {
		t.Fatalf("MsgPut answered by %s, err %v; want the connection dropped (io.EOF)", MsgName(mt), err)
	}
	if n := store.Len(); n != 0 {
		t.Fatalf("store holds %d items after a dropped MsgPut, want 0", n)
	}
}
