package perfbench

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one traced interval, recorded from this package around a call
// into a layer. Spans of one op share its Op id; Parent indexes the span
// that caused it (-1 for an op's root). Times are offsets from the
// recorder's epoch.
type Span struct {
	Name       string
	Op         int
	Parent     int
	Lane       int // trace row: client id for serve, 0 otherwise
	Start, End time.Duration
}

// interval is a bare [start, end) pair — the shape of a tile span.
type interval struct{ start, end time.Duration }

// Recorder keeps the traced pass's spans in memory; nothing is written
// until the command ends.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
	// tiles holds the kernels.tile spans of the first traceTileOps ops per
	// workload, keyed by the index of their bench.run parent.
	tiles map[int][]interval
}

// traceTileOps bounds how many ops per workload keep their individual tile
// spans for the trace file (a fine workload records 11k–16k per op); every
// op's tiles still feed the kernels.* aggregates.
const traceTileOps = 2

// NewRecorder starts a recorder whose epoch is now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now(), tiles: make(map[int][]interval)}
}

func (r *Recorder) now() time.Duration { return time.Since(r.epoch) }

// Begin opens a span and returns its index.
func (r *Recorder) Begin(name string, op, parent, lane int) int {
	start := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, Op: op, Parent: parent, Lane: lane, Start: start, End: start})
	i := len(r.spans) - 1
	r.mu.Unlock()
	return i
}

// End closes the span Begin returned.
func (r *Recorder) End(i int) {
	end := r.now()
	r.mu.Lock()
	r.spans[i].End = end
	r.mu.Unlock()
}

// Add records a span whose interval was observed rather than bracketed.
func (r *Recorder) Add(s Span) int {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	i := len(r.spans) - 1
	r.mu.Unlock()
	return i
}

// Get returns a copy of span i.
func (r *Recorder) Get(i int) Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[i]
}

// KeepTiles attaches an op's kernels.tile spans to its bench.run span for
// the trace file.
func (r *Recorder) KeepTiles(run int, tiles []interval) {
	r.mu.Lock()
	r.tiles[run] = tiles
	r.mu.Unlock()
}

// tileSlab collects the kernels.tile spans of one op through
// bench.RunOpts.Trace: a slab preallocated from the registry's TotalTasks
// and an atomic cursor, so concurrent workers append without a lock.
type tileSlab struct {
	rec   *Recorder
	next  atomic.Int64
	spans []interval
}

func newTileSlab(rec *Recorder, tasks int) *tileSlab {
	return &tileSlab{rec: rec, spans: make([]interval, tasks)}
}

// trace is the RunOpts.Trace hook.
func (s *tileSlab) trace() func() {
	i := s.next.Add(1) - 1
	start := s.rec.now()
	return func() {
		// A call beyond the closed-form task count is only counted; the
		// caller fails the op on calls != TotalTasks.
		if int(i) < len(s.spans) {
			s.spans[i] = interval{start, s.rec.now()}
		}
	}
}

// calls is the number of kernel invocations bracketed.
func (s *tileSlab) calls() int { return int(s.next.Load()) }

// recorded returns the filled part of the slab.
func (s *tileSlab) recorded() []interval {
	n := s.calls()
	if n > len(s.spans) {
		n = len(s.spans)
	}
	return s.spans[:n]
}

// Covered integrates min(lanes, children active at t) over [start, end):
// the part of a parent's lanes × duration capacity its children account
// for. With lanes == 1 that is the union of the children; with lanes == W
// and children that are tile kernels on W workers it is their summed
// worker-time. Children are clipped to the parent.
func Covered(start, end time.Duration, children []interval, lanes int) time.Duration {
	type edge struct {
		at    time.Duration
		delta int
	}
	edges := make([]edge, 0, 2*len(children))
	for _, c := range children {
		s, e := c.start, c.end
		if s < start {
			s = start
		}
		if e > end {
			e = end
		}
		if e > s {
			edges = append(edges, edge{s, +1}, edge{e, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta // close before open at a tie
	})
	var covered time.Duration
	active := 0
	var prev time.Duration
	for _, e := range edges {
		if active > 0 {
			n := active
			if n > lanes {
				n = lanes
			}
			covered += time.Duration(n) * (e.at - prev)
		}
		active += e.delta
		prev = e.at
	}
	return covered
}

// SelfTime is a layer's own time: its span, times lanes for worker-seconds,
// minus what its children cover.
func SelfTime(start, end time.Duration, children []interval, lanes int) time.Duration {
	return time.Duration(lanes)*(end-start) - Covered(start, end, children, lanes)
}

// assignLanes packs intervals onto the fewest rows with no overlap on a
// row (greedy by start time) — tile spans do not know their worker, so the
// trace file shows them on inferred rows.
func assignLanes(ivs []interval) []int {
	order := make([]int, len(ivs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ivs[order[a]].start < ivs[order[b]].start })
	lanes := make([]int, len(ivs))
	var free []time.Duration // end time of the last span on each row
	for _, i := range order {
		row := -1
		for l, end := range free {
			if end <= ivs[i].start {
				row = l
				break
			}
		}
		if row < 0 {
			free = append(free, 0)
			row = len(free) - 1
		}
		free[row] = ivs[i].end
		lanes[i] = row
	}
	return lanes
}

// WriteChromeTrace writes every recorded span as Chrome trace-event JSON
// (load in chrome://tracing or ui.perfetto.dev). One process per workload;
// op-level spans sit on their lane's row, tile spans on rows inferred by
// assignLanes below them.
func WriteChromeTrace(path string, recs map[string]*Recorder, order []string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	// Every event carries its op id; op-level spans also carry their own
	// index and their parent's (-1 for an op's root), tile spans their
	// bench.run parent's.
	event := func(name string, pid, tid, op, id, parent int, iv interval) {
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"span\":%d,\"parent\":%d}}",
			name, pid, tid, float64(iv.start)/1e3, float64(iv.end-iv.start)/1e3, op, id, parent)
	}
	const tileRow0 = 100 // tile rows sit below every op-level lane
	for pid, name := range order {
		rec := recs[name]
		if rec == nil {
			continue
		}
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		fmt.Fprintf(w, "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":%q}}", pid, name)
		for i, s := range rec.spans {
			event(s.Name, pid, s.Lane, s.Op, i, s.Parent, interval{s.Start, s.End})
			tiles := rec.tiles[i]
			for t, lane := range assignLanes(tiles) {
				event("kernels.tile", pid, tileRow0+lane, s.Op, -1, i, tiles[t])
			}
		}
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}
