// Package determinacy implements on-the-fly determinacy-race detection for
// the repo's two execution models.
//
// For the fork-join model it provides a DePa-style order-maintenance scheme
// (Westrick, Fluet & Acar, arXiv 2204.14168): every task carries a compact
// timestamp — its dag depth plus a fork-path of spawn epochs — maintained by
// the pool on each Spawn and Wait, so "did access A precede access B in the
// series-parallel dag?" is answered structurally, without clocks per worker.
// Shadow cells record the last writer and a bounded reader set per tracked
// cell (one cell per base-case tile in the benchmarks); an access that is
// unordered with a recorded conflicting access raises a RaceError naming
// both tasks by fork path.
//
// For the CnC model, DisciplineChecker (discipline.go) validates the
// nested-dataflow discipline of Dinh & Simhadri (arXiv 1602.04552): items
// are write-once, get-counts are exact, and the final item store must be
// schedule-independent.
//
// Both detectors are passive: they never alter scheduling, they collect
// findings, and Err() reports the lexicographically first finding so the
// reported error is deterministic given the detected set.
package determinacy

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// rec is the immutable spine of one task's timestamp: its position in the
// fork tree. The fork-path encoding is the chain of spawnEpoch values from
// the root; together with depth it answers precedence queries by lifting
// both accesses to their least common ancestor strand.
type rec struct {
	parent     *rec
	depth      uint32
	spawnEpoch uint32 // parent strand epoch at the Spawn that created this task

	// joined is the parent strand epoch that begins after the Wait that
	// joined this task; 0 while unjoined. Written once by the parent's
	// waiter, read by concurrent precedence queries, hence atomic.
	joined atomic.Uint32
}

// path renders the fork-path encoding, e.g. "root/3/1".
func (r *rec) path() string {
	if r.parent == nil {
		return "root"
	}
	return r.parent.path() + "/" + strconv.Itoa(int(r.spawnEpoch))
}

// access is one timestamped shadow-cell access: the task plus the strand
// segment (epoch) it was in. Strand segments advance at each Spawn and each
// completed Wait, so code before a spawn is ordered before the child while
// code after it is concurrent.
type access struct {
	rec   *rec
	epoch uint32
}

func (a access) name() string {
	return a.rec.path() + ":" + strconv.Itoa(int(a.epoch))
}

// Frame is the mutable per-task view of the timestamp: the task's rec plus
// its current strand epoch. A Frame is owned by the goroutine running the
// task; only immutable copies escape into shadow cells.
type Frame struct {
	d     *Detector
	rec   *rec
	epoch uint32
}

// RaceError reports two unordered conflicting accesses to one cell. Tasks
// are named by their fork path (spawn epochs from the root) and strand
// segment, which identifies them independently of scheduling.
type RaceError struct {
	Cell       string
	FirstOp    string // "read" or "write"
	FirstTask  string
	SecondOp   string
	SecondTask string
}

func (e *RaceError) Error() string {
	return fmt.Sprintf("determinacy: race on %s: %s by task %s is unordered with %s by task %s",
		e.Cell, e.FirstOp, e.FirstTask, e.SecondOp, e.SecondTask)
}

const shadowShards = 64

type shadowShard struct {
	mu    sync.Mutex
	cells map[uint64]*shadow
}

// shadow is the per-cell access history: the last writer and up to two
// readers since that write. Two reader slots suffice to catch every
// read-write race in series-parallel dags unless three or more pairwise-
// concurrent readers precede the racing write; in that case a race may go
// unreported (never falsely reported) — the standard bounded-shadow
// compromise, and irrelevant for the tile kernels here, whose tiles have at
// most two concurrent readers per phase.
type shadow struct {
	writer  access
	readers [2]access
}

// Detector is the fork-join race detector. Create one per pool run with
// NewDetector, hand it to forkjoin.Pool.WithRaceDetection, and check Err()
// after the run. Disabled cost is one nil check per spawn, wait and access.
type Detector struct {
	shards [shadowShards]shadowShard

	raceMu sync.Mutex
	races  []*RaceError

	tasks    atomic.Uint64
	accesses atomic.Uint64
	queries  atomic.Uint64
}

// DetectorStats is a snapshot of detector activity.
type DetectorStats struct {
	Tasks    uint64 // frames created (roots + forks)
	Accesses uint64 // shadow-cell reads + writes checked
	Queries  uint64 // precedence queries answered
	Cells    int    // distinct cells tracked
	Races    int    // conflicting unordered pairs recorded
}

// NewDetector returns an empty detector; Root makes the shadow state of
// each run. Race reports name a cell by its TileCell coordinates,
// "tile(i,j)".
func NewDetector() *Detector { return &Detector{} }

// TileCell packs a tile coordinate into a cell id for Read/Write.
func TileCell(i, j int) uint64 { return uint64(uint32(i))<<32 | uint64(uint32(j)) }

// Root starts a new run: shadow state from any previous run on this
// detector is discarded (timestamps from different runs are unrelated) and
// the root task's frame is returned. Races already recorded are kept.
// A detector must not be shared by concurrent runs.
func (d *Detector) Root() *Frame {
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		s.cells = make(map[uint64]*shadow)
		s.mu.Unlock()
	}
	d.tasks.Add(1)
	return &Frame{d: d, rec: &rec{}, epoch: 1}
}

// Fork records a Spawn: it creates the child's frame and advances the
// parent's strand epoch, so parent code after the spawn is concurrent with
// the child while code before it precedes the child.
func (f *Frame) Fork() *Frame {
	child := &rec{parent: f.rec, depth: f.rec.depth + 1, spawnEpoch: f.epoch}
	f.epoch++
	f.d.tasks.Add(1)
	return &Frame{d: f.d, rec: child, epoch: 1}
}

// Join records a completed Wait: the parent's strand epoch advances and
// every child of this frame in kids becomes ordered before the new segment.
// Children spawned by a different task (cross-task groups) are left
// unjoined — a conservative choice that can over-report concurrency; every
// driver in this repo waits on its own spawns, where the encoding is exact.
func (f *Frame) Join(kids []*Frame) {
	f.epoch++
	for _, k := range kids {
		if k.rec.parent == f.rec {
			k.rec.joined.Store(f.epoch)
		}
	}
}

// hb reports whether access a precedes access b in the series-parallel dag.
// Both are lifted to their least common ancestor strand: a through join
// epochs (an unjoined subtree precedes nothing outside itself), b through
// spawn epochs; at the LCA the strand is sequential and epochs compare
// directly. Cost is O(depth difference); the benchmarks' recursions are
// logarithmic in tile count.
func (d *Detector) hb(a, b access) bool {
	d.queries.Add(1)
	ra, ea := a.rec, a.epoch
	rb, eb := b.rec, b.epoch
	for ra.depth > rb.depth {
		j := ra.joined.Load()
		if j == 0 {
			return false
		}
		ra, ea = ra.parent, j
	}
	for rb.depth > ra.depth {
		rb, eb = rb.parent, rb.spawnEpoch
	}
	for ra != rb {
		j := ra.joined.Load()
		if j == 0 {
			return false
		}
		ra, ea = ra.parent, j
		rb, eb = rb.parent, rb.spawnEpoch
	}
	return ea <= eb
}

func (d *Detector) shard(cell uint64) *shadowShard {
	// Mix the halves so row-major tile ids spread across shards.
	h := cell ^ cell>>32 ^ cell>>7
	return &d.shards[h%shadowShards]
}

// Write checks and records a write of cell by the current task.
func (f *Frame) Write(cell uint64) {
	d := f.d
	d.accesses.Add(1)
	cur := access{rec: f.rec, epoch: f.epoch}
	sh := d.shard(cell)
	sh.mu.Lock()
	s := sh.cells[cell]
	if s == nil {
		s = &shadow{}
		sh.cells[cell] = s
	}
	if s.writer.rec != nil && !d.hb(s.writer, cur) {
		d.report(cell, s.writer, "write", cur, "write")
	}
	for _, r := range s.readers {
		if r.rec != nil && !d.hb(r, cur) {
			d.report(cell, r, "read", cur, "write")
		}
	}
	s.writer = cur
	s.readers = [2]access{}
	sh.mu.Unlock()
}

// Read checks and records a read of cell by the current task.
func (f *Frame) Read(cell uint64) {
	d := f.d
	d.accesses.Add(1)
	cur := access{rec: f.rec, epoch: f.epoch}
	sh := d.shard(cell)
	sh.mu.Lock()
	s := sh.cells[cell]
	if s == nil {
		s = &shadow{}
		sh.cells[cell] = s
	}
	if s.writer.rec != nil && !d.hb(s.writer, cur) {
		d.report(cell, s.writer, "write", cur, "read")
	}
	// Keep cur in a reader slot: prefer an empty slot, then one holding a
	// reader that precedes cur (any future access racing with that reader
	// also races with cur, so dropping it loses nothing).
	slot := -1
	for i, r := range s.readers {
		if r.rec == nil || d.hb(r, cur) {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = 1
	}
	s.readers[slot] = cur
	sh.mu.Unlock()
}

func (d *Detector) report(cell uint64, a access, aOp string, b access, bOp string) {
	// Canonicalise the pair (by task name, then op): the message identifies
	// an unordered pair, and which of the two the schedule happened to
	// execute first is irrelevant — so one race renders identically under
	// every interleaving that detects it.
	if bn, an := b.name(), a.name(); bn < an || (bn == an && bOp < aOp) {
		a, aOp, b, bOp = b, bOp, a, aOp
	}
	e := &RaceError{
		Cell:       fmt.Sprintf("tile(%d,%d)", int32(cell>>32), int32(cell)),
		FirstOp:    aOp,
		FirstTask:  a.name(),
		SecondOp:   bOp,
		SecondTask: b.name(),
	}
	d.raceMu.Lock()
	if len(d.races) < 256 {
		d.races = append(d.races, e)
	}
	d.raceMu.Unlock()
}

// Err returns nil if no race was detected, else the first detected race in
// message order — deterministic given the set of findings, however the
// schedule interleaved the detections.
func (d *Detector) Err() error {
	d.raceMu.Lock()
	defer d.raceMu.Unlock()
	if len(d.races) == 0 {
		return nil
	}
	first := d.races[0]
	for _, r := range d.races[1:] {
		if r.Error() < first.Error() {
			first = r
		}
	}
	return first
}

// Races returns every recorded race, sorted by message.
func (d *Detector) Races() []*RaceError {
	d.raceMu.Lock()
	out := make([]*RaceError, len(d.races))
	copy(out, d.races)
	d.raceMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Error() < out[j].Error() })
	return out
}

// Stats returns a snapshot of detector activity.
func (d *Detector) Stats() DetectorStats {
	st := DetectorStats{
		Tasks:    d.tasks.Load(),
		Accesses: d.accesses.Load(),
		Queries:  d.queries.Load(),
	}
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		st.Cells += len(s.cells)
		s.mu.Unlock()
	}
	d.raceMu.Lock()
	st.Races = len(d.races)
	d.raceMu.Unlock()
	return st
}
