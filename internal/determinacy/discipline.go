package determinacy

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DisciplineChecker validates the CnC nested-dataflow discipline on an item
// store: items are single-assignment (a double put with differing values is
// a determinism bug, not just an API misuse), declared get-counts are
// exact (an overdraw is attributed to the step that over-read, alongside
// the steps that legitimately consumed the budget), and the final item
// contents must be schedule-independent (Fingerprint / DiffFingerprints
// back the post-run determinism audit).
//
// The checker is passive and graph-agnostic: the cnc runtime reports
// events into it when installed via Graph.WithDisciplineCheck. Step
// attribution uses a per-goroutine label set by Enter — the runtime
// brackets every step body (on a worker) and the environment (on the
// caller of Run) with Enter, so puts, gets and releases are charged to the
// step instance that issued them. Brackets never nest on one goroutine.
type DisciplineChecker struct {
	mu     sync.Mutex
	labels map[uint64]string // goroutine id -> label
	items  map[itemRef]*itemLedger
	faults []error

	puts     atomic.Uint64
	gets     atomic.Uint64
	releases atomic.Uint64
}

type itemRef struct {
	coll string
	key  any
}

type itemLedger struct {
	putBy     string
	value     string
	declared  int // declared get-count; -1 when the collection has none
	consumers []string
}

// DisciplineStats is a snapshot of checker activity.
type DisciplineStats struct {
	Puts       uint64
	Gets       uint64
	Releases   uint64
	Items      int
	Violations int
}

// DoublePutError reports a write-once violation: the same item was put
// twice. Differs distinguishes a determinism-breaking conflicting put from
// a benign (but still illegal) duplicate of the same value.
type DoublePutError struct {
	Collection  string
	Key         string
	FirstPutBy  string
	SecondPutBy string
	FirstValue  string
	SecondValue string
	Differs     bool
}

func (e *DoublePutError) Error() string {
	vals := fmt.Sprintf("equal values (%s)", e.FirstValue)
	if e.Differs {
		vals = fmt.Sprintf("differing values (%s vs %s)", e.FirstValue, e.SecondValue)
	}
	return fmt.Sprintf("determinacy: write-once violation on %s[%s]: put by %s and again by %s with %s",
		e.Collection, e.Key, e.FirstPutBy, e.SecondPutBy, vals)
}

// OverdrawError reports a get-count overdraw: By accessed the item after
// the declared budget was exhausted by Consumers.
type OverdrawError struct {
	Collection string
	Key        string
	Declared   int
	By         string
	Op         string // "get" or "release"
	Consumers  []string
}

func (e *OverdrawError) Error() string {
	return fmt.Sprintf("determinacy: get-count overdraw on %s[%s]: declared %d, consumed by [%s], then %s over-%s",
		e.Collection, e.Key, e.Declared, strings.Join(e.Consumers, " "), e.By, e.Op)
}

// NewDisciplineChecker returns an empty checker.
func NewDisciplineChecker() *DisciplineChecker {
	return &DisciplineChecker{
		labels: make(map[uint64]string),
		items:  make(map[itemRef]*itemLedger),
	}
}

// goid parses the current goroutine's id from its stack header. Only the
// checking path pays for it; the runtime has no portable cheaper handle.
func goid() uint64 {
	var b [64]byte
	n := runtime.Stack(b[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for _, c := range b[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// Enter labels the current goroutine with a step label and returns the
// matching exit. The runtime brackets each step body, and the environment,
// with it.
func (dc *DisciplineChecker) Enter(label string) func() {
	id := goid()
	dc.mu.Lock()
	dc.labels[id] = label
	dc.mu.Unlock()
	return func() {
		dc.mu.Lock()
		delete(dc.labels, id)
		dc.mu.Unlock()
	}
}

// current returns the label of the calling goroutine. Callers must hold
// dc.mu.
func (dc *DisciplineChecker) current(id uint64) string {
	if label, ok := dc.labels[id]; ok {
		return label
	}
	return "(unattributed)"
}

// Current returns the step label attributed to the calling goroutine.
func (dc *DisciplineChecker) Current() string {
	id := goid()
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return dc.current(id)
}

// RecordPut records a successful item put by the current step. declared is
// the item's get-count, or -1 when the collection has none.
func (dc *DisciplineChecker) RecordPut(coll string, key any, declared int, value string) {
	dc.puts.Add(1)
	id := goid()
	dc.mu.Lock()
	defer dc.mu.Unlock()
	ref := itemRef{coll, key}
	if dc.items[ref] == nil {
		dc.items[ref] = &itemLedger{putBy: dc.current(id), value: value, declared: declared}
	}
}

// DoublePut records a write-once violation by the current step and returns
// the error naming both putters. The runtime calls it from the put path
// that its own single-assignment check rejected.
func (dc *DisciplineChecker) DoublePut(coll string, key any, value string) *DoublePutError {
	id := goid()
	dc.mu.Lock()
	defer dc.mu.Unlock()
	e := &DoublePutError{
		Collection:  coll,
		Key:         fmt.Sprint(key),
		FirstPutBy:  "(unknown)",
		SecondPutBy: dc.current(id),
		SecondValue: value,
	}
	if led := dc.items[itemRef{coll, key}]; led != nil {
		e.FirstPutBy, e.FirstValue = led.putBy, led.value
		e.Differs = led.value != value
	} else {
		e.FirstValue = "(unrecorded)"
		e.Differs = true
	}
	dc.faults = append(dc.faults, e)
	return e
}

// RecordGet records an item read by the current step.
func (dc *DisciplineChecker) RecordGet(coll string, key any) {
	dc.gets.Add(1)
}

// RecordRelease records one get-count decrement charged to the current
// step, building the consumer ledger that overdraw reports draw on.
func (dc *DisciplineChecker) RecordRelease(coll string, key any) {
	dc.releases.Add(1)
	id := goid()
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if led := dc.items[itemRef{coll, key}]; led != nil {
		led.consumers = append(led.consumers, dc.current(id))
	}
}

// Overdraw records a get-count overdraw by the current step (op is "get"
// for a read of a freed item, "release" for a decrement past zero) and
// returns the error attributing it alongside the recorded consumers.
func (dc *DisciplineChecker) Overdraw(coll string, key any, op string) *OverdrawError {
	id := goid()
	dc.mu.Lock()
	defer dc.mu.Unlock()
	e := &OverdrawError{
		Collection: coll,
		Key:        fmt.Sprint(key),
		Declared:   -1,
		By:         dc.current(id),
		Op:         op,
	}
	if led := dc.items[itemRef{coll, key}]; led != nil {
		e.Declared = led.declared
		e.Consumers = append([]string(nil), led.consumers...)
		sort.Strings(e.Consumers)
	}
	dc.faults = append(dc.faults, e)
	return e
}

// Violations returns every recorded discipline violation, sorted by
// message so the report is deterministic.
func (dc *DisciplineChecker) Violations() []error {
	dc.mu.Lock()
	out := make([]error, len(dc.faults))
	copy(out, dc.faults)
	dc.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Error() < out[j].Error() })
	return out
}

// Err returns nil if the run obeyed the discipline, else the first
// violation in message order.
func (dc *DisciplineChecker) Err() error {
	if v := dc.Violations(); len(v) > 0 {
		return v[0]
	}
	return nil
}

// Fingerprint returns the item-store contents recorded across the run:
// every item ever put, keyed "collection[key]", valued by its rendered
// value. Unlike the live store it is independent of get-count GC, so two
// runs of a determinate graph fingerprint identically under any schedule.
func (dc *DisciplineChecker) Fingerprint() map[string]string {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	out := make(map[string]string, len(dc.items))
	for ref, led := range dc.items {
		out[fmt.Sprintf("%s[%v]", ref.coll, ref.key)] = led.value
	}
	return out
}

// Reads returns the run's dependency graph at item level, as the release
// ledger recorded it: for every item put, the items its producing step
// instance released on completion — that step's completed gets — sorted,
// with items named "collection[key]" as in Fingerprint. Steps of
// collections that declare no read set release nothing and map to nil.
func (dc *DisciplineChecker) Reads() map[string][]string {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	name := func(ref itemRef) string { return fmt.Sprintf("%s[%v]", ref.coll, ref.key) }
	byStep := make(map[string][]string)
	for ref, led := range dc.items {
		for _, step := range led.consumers {
			byStep[step] = append(byStep[step], name(ref))
		}
	}
	out := make(map[string][]string, len(dc.items))
	for ref, led := range dc.items {
		reads := append([]string(nil), byStep[led.putBy]...)
		sort.Strings(reads)
		out[name(ref)] = reads
	}
	return out
}

// DiffFingerprints compares two item-store fingerprints and returns a
// sorted description of every difference; empty means identical contents.
func DiffFingerprints(a, b map[string]string) []string {
	var out []string
	for k, va := range a {
		if vb, ok := b[k]; !ok {
			out = append(out, fmt.Sprintf("%s: present only in first run (%s)", k, va))
		} else if va != vb {
			out = append(out, fmt.Sprintf("%s: %s vs %s", k, va, vb))
		}
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok {
			out = append(out, fmt.Sprintf("%s: present only in second run (%s)", k, vb))
		}
	}
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of checker activity.
func (dc *DisciplineChecker) Stats() DisciplineStats {
	dc.mu.Lock()
	items, faults := len(dc.items), len(dc.faults)
	dc.mu.Unlock()
	return DisciplineStats{
		Puts:       dc.puts.Load(),
		Gets:       dc.gets.Load(),
		Releases:   dc.releases.Load(),
		Items:      items,
		Violations: faults,
	}
}
