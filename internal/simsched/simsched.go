// Package simsched is a discrete-event simulator of greedy list scheduling
// on P identical processors — the machinery that lets this repository
// reproduce the paper's 64-core EPYC and 192-core Skylake results on a
// machine with one physical core.
//
// The simulator executes a task DAG (internal/dag) under a cost model: each
// task takes Cost(kind) seconds of processor time plus Overhead(kind)
// seconds of runtime bookkeeping, and a task becomes ready the moment its
// last predecessor finishes (data-flow) or its guarding join completes
// (fork-join). Greedy scheduling — never leave a processor idle while a
// task is ready — is what both real runtimes (work stealing, CnC/TBB)
// approximate, and it is the standard model in which the fork-join span
// results the paper cites are stated; Brent's inequality
// T₁/P ≤ T_P ≤ T₁/P + T∞ is asserted by the tests.
package simsched

import (
	"fmt"

	"dpflow/internal/dag"
)

// Costs is the cost model of one (benchmark, machine, variant)
// combination. See internal/model for how the entries are derived.
type Costs struct {
	// Exec is the execution time of one task of each kind, seconds.
	Exec [dag.NumKinds]float64
	// Overhead is the runtime bookkeeping charged per task of each kind
	// (spawn/tag-put/abort-retry amortisation...), seconds.
	Overhead [dag.NumKinds]float64
	// Startup is charged once before the first task can run — e.g. the
	// manual CnC variant's up-front instantiation of the whole task graph.
	Startup float64
	// SerialPerTask is a global dispatch-serialisation term: successive
	// task dispatches are spaced at least this far apart regardless of how
	// many processors are free. It models centralised scheduler state —
	// GNU OpenMP's single task queue and its lock, or the manual CnC
	// variant's contended global collections — and is what makes runs with
	// millions of micro-tasks scheduler-bound, as the paper observes at
	// tiny base sizes.
	SerialPerTask float64
}

// TaskTime returns the total processor time one task of kind k occupies.
func (c *Costs) TaskTime(k dag.Kind) float64 { return c.Exec[k] + c.Overhead[k] }

// Result summarises one simulated execution.
type Result struct {
	Makespan    float64 // seconds from start to last task completion
	Work        float64 // ΣTaskTime — the serial execution time T1
	SpanTasks   int     // number of tasks on the critical path
	Processors  int     // P used (0 = unbounded)
	BusyTime    float64 // total processor-seconds spent executing
	Utilization float64 // BusyTime / (P × Makespan); 0 for unbounded P
	PeakReady   int     // maximum size of the ready pool (parallelism proxy)
	// Timeline, when requested via SimulateTimeline, samples the number of
	// busy processors over the run: Timeline[i] covers the window
	// [i, i+1)·Makespan/len(Timeline). It is the quantitative form of the
	// paper's "threads becoming idle" observation.
	Timeline []float64
}

// SimulateTimeline runs Simulate and additionally samples processor
// occupancy into `buckets` windows (none for unbounded p or buckets <= 0).
func SimulateTimeline(g dag.Graph, p int, c Costs, buckets int) (Result, error) {
	if p <= 0 {
		return simulateInfinite(g, c)
	}
	r, err := simulateBounded(g, p, c, buckets, nil)
	return r.Result, err
}

// Simulate runs the graph on p processors (p <= 0 simulates unbounded
// processors, in which case Makespan is the span T∞). It panics only on
// malformed graphs; cyclic graphs are reported as an error.
func Simulate(g dag.Graph, p int, c Costs) (Result, error) {
	return SimulateTimeline(g, p, c, 0)
}

// simulateBounded is the one greedy dispatch loop. A nil placement
// dispatches the oldest ready task onto any free processor. A non-nil one
// lets a processor pick a home-socket task within the scan window
// (PreferHome), and charges and counts migrations.
func simulateBounded(g dag.Graph, p int, c Costs, buckets int, af *Affinity) (AffinityResult, error) {
	n := g.Len()
	indeg := make([]int32, n)
	ready := newQueue(p * 4)
	for i := 0; i < n; i++ {
		indeg[i] = int32(g.InDeg(i))
		if indeg[i] == 0 {
			ready.push(int32(i))
		}
	}

	var (
		running     eventHeap
		now         = c.Startup
		done        int
		busy        float64
		peakReady   int
		migrations  int
		serialClock = c.Startup // next instant the central dispatcher is free
		intervals   [][2]float64
		free        = make([]int32, p) // free processor ids, LIFO
	)
	for i := range free {
		free[i] = int32(i)
	}
	// release counts down a completed task's successor; built once, not per
	// completion, so a completion allocates nothing here.
	release := func(s int) {
		indeg[s]--
		if indeg[s] == 0 {
			ready.push(int32(s))
		}
	}
	for done < n {
		peakReady = max(peakReady, ready.len())
		// Dispatch ready tasks onto free processors, throttled by the
		// global dispatcher when SerialPerTask > 0.
		for len(free) > 0 && ready.len() > 0 {
			proc := free[len(free)-1]
			free = free[:len(free)-1]
			id := ready.take(af.pick(ready, proc))
			t := c.TaskTime(g.Kind(int(id)))
			if af.migrates(g, int(id), proc) {
				t += af.MigratePenalty
				migrations++
			}
			start := now
			if c.SerialPerTask > 0 {
				start = max(start, serialClock)
				serialClock = start + c.SerialPerTask
			}
			busy += t
			if buckets > 0 {
				intervals = append(intervals, [2]float64{start, start + t})
			}
			running.push(event{at: start + t, id: id, proc: proc})
		}
		if running.empty() {
			return AffinityResult{}, fmt.Errorf("simsched: %d of %d tasks never became ready (cycle?)", n-done, n)
		}
		// Advance to the next completion; batch-complete simultaneous ones.
		ev := running.pop()
		now = ev.at
		for {
			g.EachSucc(int(ev.id), release)
			done++
			free = append(free, ev.proc)
			if running.empty() || running.peek().at != now {
				break
			}
			ev = running.pop()
		}
	}
	res := AffinityResult{Migrations: migrations}
	res.Makespan = now
	res.Work = totalWork(g, c)
	res.Processors = p
	res.BusyTime = busy
	res.Utilization = busy / (float64(p) * now)
	res.PeakReady = peakReady
	if buckets > 0 && now > 0 {
		res.Timeline = binIntervals(intervals, now, buckets)
	}
	return res, nil
}

// pick returns the ready-pool position processor proc runs next: the
// oldest task, or under PreferHome the oldest task homed on proc's socket
// within the first scanLimit.
func (af *Affinity) pick(ready *queue, proc int32) int {
	if af != nil && af.PreferHome {
		for i := 0; i < min(ready.len(), scanLimit); i++ {
			if af.Home(int(ready.at(i))) == int(proc)%af.Sockets {
				return i
			}
		}
	}
	return 0
}

// migrates reports whether task id runs away from its home socket on
// proc; joins hold no tile, so they never migrate.
func (af *Affinity) migrates(g dag.Graph, id int, proc int32) bool {
	return af != nil && g.Kind(id) != dag.KindJoin && af.Home(id) != int(proc)%af.Sockets
}

// binIntervals converts busy intervals into average-occupancy buckets over
// [0, makespan).
func binIntervals(intervals [][2]float64, makespan float64, buckets int) []float64 {
	out := make([]float64, buckets)
	width := makespan / float64(buckets)
	for _, iv := range intervals {
		lo, hi := iv[0], iv[1]
		for b := int(lo / width); b <= min(int(hi/width), buckets-1); b++ {
			wLo, wHi := float64(b)*width, float64(b+1)*width
			overlap := min(hi, wHi) - max(lo, wLo)
			if overlap > 0 {
				out[b] += overlap / width
			}
		}
	}
	return out
}

// simulateInfinite computes the span by longest-path dynamic programming
// over a Kahn traversal: finish(v) = taskTime(v) + max over preds, which
// equals the unbounded-processor greedy makespan.
func simulateInfinite(g dag.Graph, c Costs) (Result, error) {
	n := g.Len()
	indeg := make([]int32, n)
	finish := make([]float64, n)
	depth := make([]int32, n)
	queue := make([]int32, 0, 1024)
	for i := 0; i < n; i++ {
		indeg[i] = int32(g.InDeg(i))
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
			finish[i] = c.TaskTime(g.Kind(i))
			if g.Kind(i) != dag.KindJoin {
				depth[i] = 1
			}
		}
	}
	seen := 0
	span := 0.0
	spanTasks := int32(0)
	var id int32 // the task whose successors release visits
	release := func(s int) {
		if finish[id] > finish[s] {
			finish[s] = finish[id]
		}
		d := depth[id]
		if g.Kind(s) != dag.KindJoin {
			d++
		}
		if d > depth[s] {
			depth[s] = d
		}
		indeg[s]--
		if indeg[s] == 0 {
			finish[s] += c.TaskTime(g.Kind(s))
			queue = append(queue, int32(s))
		}
	}
	for len(queue) > 0 {
		id = queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		if finish[id] > span {
			span = finish[id]
		}
		if depth[id] > spanTasks {
			spanTasks = depth[id]
		}
		g.EachSucc(int(id), release)
	}
	if seen != n {
		return Result{}, fmt.Errorf("simsched: only %d of %d tasks reachable (cycle?)", seen, n)
	}
	makespan := span + c.Startup
	// Even unbounded processors cannot beat a serialised dispatcher.
	if floor := c.Startup + float64(n)*c.SerialPerTask; floor > makespan {
		makespan = floor
	}
	return Result{
		Makespan:  makespan,
		Work:      totalWork(g, c),
		SpanTasks: int(spanTasks),
	}, nil
}

func totalWork(g dag.Graph, c Costs) float64 {
	var byKind [dag.NumKinds]int
	for i := 0; i < g.Len(); i++ {
		byKind[g.Kind(i)]++
	}
	w := 0.0
	for k, cnt := range byKind {
		w += float64(cnt) * c.TaskTime(dag.Kind(k))
	}
	return w
}

// queue is a FIFO of task ids: appended at the tail, consumed from the
// front. Once the live ids reach the end of the array, append moves them
// to a fresh one, so the buffer tracks the ready pool, not the run.
type queue struct{ ids []int32 }

func newQueue(capHint int) *queue { return &queue{ids: make([]int32, 0, capHint)} }

func (q *queue) len() int       { return len(q.ids) }
func (q *queue) push(v int32)   { q.ids = append(q.ids, v) }
func (q *queue) pop() int32     { return q.take(0) }
func (q *queue) at(i int) int32 { return q.ids[i] }

// take removes and returns the i-th oldest id; the ids queued before it
// shift up one slot, so the rest keep their FIFO order.
func (q *queue) take(i int) int32 {
	v := q.ids[i]
	copy(q.ids[1:i+1], q.ids[:i])
	q.ids = q.ids[1:]
	return v
}

// event is one running task's completion.
type event struct {
	at   float64
	id   int32
	proc int32 // the processor it runs on
}

// eventHeap is a binary min-heap on completion time, specialised to avoid
// interface dispatch on hot paths.
type eventHeap struct {
	es []event
}

func (h *eventHeap) empty() bool { return len(h.es) == 0 }
func (h *eventHeap) peek() event { return h.es[0] }

func (h *eventHeap) push(e event) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.es[parent].at <= h.es[i].at {
			break
		}
		h.es[parent], h.es[i] = h.es[i], h.es[parent]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	top := h.es[0]
	last := len(h.es) - 1
	h.es[0] = h.es[last]
	h.es = h.es[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.es[l].at < h.es[small].at {
			small = l
		}
		if r < last && h.es[r].at < h.es[small].at {
			small = r
		}
		if small == i {
			break
		}
		h.es[i], h.es[small] = h.es[small], h.es[i]
		i = small
	}
	return top
}
