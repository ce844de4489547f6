// Package dist is the sharded multi-process runtime: a coordinator process
// that runs the CnC graph and N worker processes that each own one shard of
// the item space, connected over Unix-domain sockets. It layers on the
// generic cnc.ItemBackend seam, so every registered benchmark runs
// distributed with zero per-benchmark code. The shards are a mirror: the
// coordinator sends each item put to its shard owner in batches, and reads
// never leave the coordinator — cnc reads every item from its own cell.
// After each batch is acked, a sample of it (Options.VerifySample) is
// fetched back and byte-compared with what was sent.
//
// The runtime's robustness ladder, bottom to top: per-request deadlines
// with retry + exponential backoff + jitter (retry.go); reconnect against
// a live but unresponsive worker; supervisor respawn of dead workers with
// replay of the coordinator's write-ahead put log (safe because items are
// write-once — workers accept byte-identical duplicate puts); and graceful
// degradation when a shard is irrecoverably lost: it stops being mirrored,
// which is exactly single-process execution. Faults are injected through
// the Coordinator's frame hook and KillWorker.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"reflect"
	"sync"

	"dpflow/internal/bench"
)

// Wire format: every frame is
//
//	uint32 BE  frame length (bytes after this field)
//	byte       message type
//	uint64 BE  sequence number
//	body       the message struct's fields (may be empty), see appendWire
//
// The sequence number lives in the frame header, not the body, so the
// coordinator can discard stale responses (a retried request's late answer)
// without parsing them. Types 2 and 4 carried a single get and its answer;
// they are retired, not reused.
const (
	// MsgPut carries PutMsg coordinator->worker; answered by MsgAck.
	MsgPut byte = 1
	// MsgAck answers MsgPut and MsgPutBatch.
	MsgAck byte = 3
	// MsgPing is the heartbeat probe (empty payload); answered by MsgPong.
	MsgPing byte = 5
	// MsgPong answers MsgPing.
	MsgPong byte = 6
	// MsgPutBatch carries PutBatchMsg coordinator->worker — a whole flush
	// of mirror puts in one frame; answered by MsgAck. Semantically
	// identical to len(Ops) MsgPut exchanges (same write-once, byte-equal
	// idempotence per op), amortising the round trip and the syscalls.
	MsgPutBatch byte = 7
	// MsgGetBatch carries GetBatchMsg coordinator->worker; answered by
	// MsgItemBatch with one ItemMsg per requested key, in order. Used to
	// check a sample of each acked put batch, and by the post-replay audit
	// to check a sample of restored items, in one exchange each.
	MsgGetBatch byte = 8
	// MsgItemBatch answers MsgGetBatch.
	MsgItemBatch byte = 9
)

// MsgName renders a message type for logs and fault hooks.
func MsgName(mt byte) string {
	if int(mt) < len(msgNames) && msgNames[mt] != "" {
		return msgNames[mt]
	}
	return fmt.Sprintf("msg(%d)", mt)
}

var msgNames = [...]string{MsgPut: "put", MsgAck: "ack", MsgPing: "ping", MsgPong: "pong",
	MsgPutBatch: "putbatch", MsgGetBatch: "getbatch", MsgItemBatch: "itembatch"}

// maxFrame bounds a single frame; anything larger is a protocol error, not
// a legitimate tile (the benchmarks exchange receipt booleans and small
// structs).
const maxFrame = 16 << 20

const (
	headerLen = 4             // length field itself
	prefixLen = headerLen + 9 // length + type + seq: where a frame's body starts
)

// ErrFrameTooLarge reports a frame whose body would exceed maxFrame. It is
// the sender's error: the receiving ReadFrame would reject the length and
// drop the connection, which the recovery ladder cannot fix.
var ErrFrameTooLarge = errors.New("dist: frame exceeds the 16 MiB limit")

// ErrWireType reports a value whose type the wire codec cannot carry:
// one outside the registered benchmarks' Wire vocabularies, or one built
// from kinds the codec has no encoding for (maps, pointers, interfaces).
var ErrWireType = errors.New("dist: type not in the wire vocabulary")

// errMalformed reports bytes no encoder of this package produced.
var errMalformed = errors.New("dist: malformed wire bytes")

// PutMsg stores one write-once item on its shard owner. Key and Val are
// pre-encoded (EncodeValue) — workers treat both as opaque bytes and need
// no type registrations.
type PutMsg struct {
	Coll string
	Key  []byte
	Val  []byte
}

// GetMsg names one item a GetBatchMsg fetches.
type GetMsg struct {
	Coll string
	Key  []byte
}

// AckMsg answers a put. A non-empty Err is a protocol-level failure the
// coordinator must surface (the only expected one: a write-once violation,
// a differing duplicate put).
type AckMsg struct {
	Err string
}

// ItemMsg answers one GetMsg of a batch.
type ItemMsg struct {
	Found bool
	Val   []byte
	Err   string
}

// PongMsg answers a ping; Stored is the worker's item count, a cheap
// invariant probe for tests.
type PongMsg struct {
	Stored uint64
}

// PutBatchMsg stores a batch of write-once items in one frame. The worker
// applies Ops in order and answers with a single MsgAck: empty Err when
// every op was accepted (or was a byte-identical duplicate — replay), the
// first failing op's error otherwise. All-or-first-error, not transactional:
// ops before a failure are stored, which is safe because any error here is
// terminal for the run.
type PutBatchMsg struct {
	Ops []PutMsg
}

// GetBatchMsg fetches a batch of items in one frame; answered by
// MsgItemBatch.
type GetBatchMsg struct {
	Gets []GetMsg
}

// ItemBatchMsg answers MsgGetBatch: Items[i] answers Gets[i].
type ItemBatchMsg struct {
	Items []ItemMsg
}

// uvarintLen is the encoded length of x as a uvarint; zigzag is the
// unsigned form a signed int travels in (as in binary.AppendVarint).
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
func zigzag(x int64) uint64   { return uint64(x)<<1 ^ uint64(x>>63) }

// One codec carries both the frame bodies (the eight message structs) and
// the tag/key/item values (the benchmarks' Wire vocabularies), by walking
// the Go value: signed ints as zigzag varints, unsigned as uvarints, one
// byte per bool, the 8-byte IEEE bits for floats, strings and []byte as a
// uvarint length and the bytes, other slices as a uvarint count and the
// elements, structs field by field in declaration order. wireSize is the
// exact length appendWire appends, which is how every encode is a single
// allocation; parseWire inverts them; checkWire says whether a type is made
// of those kinds only, and is the gate in front of the other three.
func wireSize(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Bool:
		return 1
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return uvarintLen(zigzag(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return uvarintLen(v.Uint())
	case reflect.Float32, reflect.Float64:
		return 8
	case reflect.String:
		return uvarintLen(uint64(v.Len())) + v.Len()
	case reflect.Slice:
		n := uvarintLen(uint64(v.Len()))
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return n + v.Len()
		}
		for i := 0; i < v.Len(); i++ {
			n += wireSize(v.Index(i))
		}
		return n
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += wireSize(v.Field(i))
		}
		return n
	}
	return 0
}

func appendWire(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendUvarint(b, zigzag(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
	case reflect.Slice:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return append(b, v.Bytes()...)
		}
		for i := 0; i < v.Len(); i++ {
			b = appendWire(b, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendWire(b, v.Field(i))
		}
	}
	return b
}

// parseWire fills the settable v from p. A []byte aliases the input; a nil
// slice and an empty one encode alike and both parse as empty.
func parseWire(p *parser, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		b := p.take(1)
		p.failIf(b != nil && b[0] > 1)
		v.SetBool(b != nil && b[0] == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		ux := p.uvarint()
		x := int64(ux>>1) ^ -int64(ux&1)
		p.failIf(v.OverflowInt(x))
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := p.uvarint()
		p.failIf(v.OverflowUint(x))
		v.SetUint(x)
	case reflect.Float32, reflect.Float64:
		if b := p.take(8); b != nil {
			v.SetFloat(math.Float64frombits(binary.BigEndian.Uint64(b)))
		}
	case reflect.String:
		v.SetString(string(p.take(p.uvarint())))
	case reflect.Slice:
		n := p.uvarint()
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes(p.take(n))
			return
		}
		// A count the remaining bytes cannot hold is refused before
		// anything is allocated for it.
		if p.failIf(n > uint64(len(p.b)/minWireSize(v.Type().Elem()))) {
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), int(n), int(n)))
		for i := 0; i < int(n); i++ {
			parseWire(p, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			parseWire(p, v.Field(i))
		}
	}
}

// minWireSize is the shortest encoding a value of type t can have — never
// zero, because checkWire refuses field-less structs.
func minWireSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Float32, reflect.Float64:
		return 8
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += minWireSize(t.Field(i).Type)
		}
		return n
	}
	return 1
}

func checkWire(t reflect.Type) error {
	if t == nil {
		return fmt.Errorf("%w: untyped nil", ErrWireType)
	}
	switch t.Kind() {
	case reflect.Bool, reflect.String, reflect.Float32, reflect.Float64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return nil
	case reflect.Slice:
		return checkWire(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); !f.IsExported() {
				return fmt.Errorf("%w: %s has unexported field %s", ErrWireType, t, f.Name)
			} else if err := checkWire(f.Type); err != nil {
				return err
			}
		}
		if t.NumField() > 0 {
			return nil
		}
	}
	return fmt.Errorf("%w: no encoding for %s", ErrWireType, t)
}

// parser consumes wire bytes front to back. The first malformed field
// latches err and empties the input, so every later read fails too and
// callers check once, in finish.
type parser struct {
	b   []byte
	err error
}

func (p *parser) failIf(bad bool) bool {
	if bad {
		p.b, p.err = nil, errMalformed
	}
	return bad
}

func (p *parser) uvarint() uint64 {
	v, n := binary.Uvarint(p.b)
	if p.failIf(n <= 0) {
		return 0
	}
	p.b = p.b[n:]
	return v
}

// take returns the next n bytes, aliasing the input, or nil.
func (p *parser) take(n uint64) []byte {
	if p.failIf(n > uint64(len(p.b))) {
		return nil
	}
	out := p.b[:n:n]
	p.b = p.b[n:]
	return out
}

// finish reports the latched error, or trailing bytes no field claimed.
func (p *parser) finish() error {
	p.failIf(len(p.b) != 0)
	return p.err
}

// EncodeFrame renders one frame in a single allocation. payload is one of
// the message structs, by value, or nil for an empty body (MsgPing). A body
// over maxFrame is ErrFrameTooLarge.
func EncodeFrame(mt byte, seq uint64, payload any) ([]byte, error) {
	var v reflect.Value
	body := 0
	switch payload.(type) {
	case nil:
	case PutMsg, AckMsg, PongMsg, PutBatchMsg, GetBatchMsg, ItemBatchMsg:
		v = reflect.ValueOf(payload)
		body = wireSize(v)
	default:
		return nil, fmt.Errorf("dist: encode %s frame: payload is not a message struct", MsgName(mt))
	}
	if 9+body > maxFrame {
		return nil, fmt.Errorf("dist: encode %s frame, %d-byte body: %w", MsgName(mt), body, ErrFrameTooLarge)
	}
	b := make([]byte, prefixLen, prefixLen+body)
	binary.BigEndian.PutUint32(b, uint32(9+body))
	b[headerLen] = mt
	binary.BigEndian.PutUint64(b[headerLen+1:], seq)
	return appendWire(b, v), nil
}

// ReadFrame reads one frame off r, returning the message type, sequence
// number, raw payload bytes, and the total wire size of the frame (header
// included) — the single source of truth for byte accounting and
// size-sensitive fault hooks, so no caller re-derives the frame layout.
func ReadFrame(r io.Reader) (mt byte, seq uint64, payload []byte, wire int, err error) {
	var lenb [headerLen]byte
	if _, err = io.ReadFull(r, lenb[:]); err != nil {
		return 0, 0, nil, 0, err
	}
	n := binary.BigEndian.Uint32(lenb[:])
	if n < 9 || n > maxFrame {
		return 0, 0, nil, 0, fmt.Errorf("dist: bad frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err = io.ReadFull(r, buf); err != nil {
		return 0, 0, nil, 0, err
	}
	return buf[0], binary.BigEndian.Uint64(buf[1:9]), buf[9:], headerLen + int(n), nil
}

// DecodePayload parses a frame payload into v, a pointer to a message
// struct. Parsed Key and Val fields alias payload.
func DecodePayload(payload []byte, v any) error {
	switch v.(type) {
	case *PutMsg, *AckMsg, *PongMsg, *PutBatchMsg, *GetBatchMsg, *ItemBatchMsg:
	default:
		return errors.New("dist: decode payload: target is not a pointer to a message struct")
	}
	p := parser{b: payload}
	parseWire(&p, reflect.ValueOf(v).Elem())
	return p.finish()
}

// The registry behind EncodeValue/DecodeValue. Every registered value type
// has a small id (1, 2, … in registration order; wireTypes[id-1] is the
// type) that leads each encoding of it, so equal field values of two types
// never produce equal bytes. Filled once by RegisterWireTypes, then
// read-only — lookups take no lock. wireErr is what registration refused.
var (
	wireIDs      = map[reflect.Type]uint64{}
	wireTypes    []reflect.Type
	wireErr      error
	registerOnce sync.Once
)

// EncodeValue renders one tag/key/item value to bytes: the type's id, then
// the value as appendWire walks it. The bytes are a pure function of the
// value and differ between types — the properties the shard map (same key,
// same shard), the worker store key and the byte-equal idempotent-replay
// check all rely on. A type outside the registered Wire vocabularies is
// ErrWireType.
func EncodeValue(v any) ([]byte, error) {
	RegisterWireTypes()
	if wireErr != nil {
		return nil, wireErr
	}
	id, ok := wireIDs[reflect.TypeOf(v)]
	if !ok {
		return nil, fmt.Errorf("dist: encode value: %w: %v", ErrWireType, reflect.TypeOf(v))
	}
	rv := reflect.ValueOf(v)
	b := make([]byte, 0, uvarintLen(id)+wireSize(rv))
	return appendWire(binary.AppendUvarint(b, id), rv), nil
}

// DecodeValue inverts EncodeValue.
func DecodeValue(b []byte) (any, error) {
	RegisterWireTypes()
	if wireErr != nil {
		return nil, wireErr
	}
	p := parser{b: b}
	id := p.uvarint()
	if p.err != nil || id == 0 || id > uint64(len(wireTypes)) {
		return nil, fmt.Errorf("dist: decode value: type id %d: %w", id, errMalformed)
	}
	v := reflect.New(wireTypes[id-1]).Elem()
	parseWire(&p, v)
	if err := p.finish(); err != nil {
		return nil, fmt.Errorf("dist: decode value %s: %w", v.Type(), err)
	}
	return v.Interface(), nil
}

// RegisterWireTypes admits every registered benchmark's tag, key and
// item-value concrete types to the value codec, by walking bench.All()
// through the Wire vocabulary each benchmark declares. A type the codec
// cannot carry is refused by name (ErrWireType, from every EncodeValue and
// DecodeValue after it) — there is no fallback encoding. Coordinator-side
// only — workers never decode values. Idempotent and safe from multiple
// goroutines.
func RegisterWireTypes() {
	registerOnce.Do(func() {
		for _, b := range bench.All() {
			w := b.Wire(4)
			samples := append([]any(nil), w.Tags...)
			for _, it := range w.Items {
				samples = append(samples, it.Key, it.Val)
			}
			for _, s := range samples {
				t := reflect.TypeOf(s)
				if _, seen := wireIDs[t]; seen {
					continue
				}
				if err := checkWire(t); err != nil {
					wireErr = fmt.Errorf("dist: %s wire vocabulary: %w", b.Name(), err)
					continue
				}
				wireTypes = append(wireTypes, t)
				wireIDs[t] = uint64(len(wireTypes))
			}
		}
	})
}
