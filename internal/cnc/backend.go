package cnc

import "fmt"

// ItemBackend is an external item store the graph mirrors its items to —
// the seam the distributed runtime (internal/dist) plugs a sharded
// multi-process store into without this package knowing anything about
// processes, sockets or codecs.
//
// A backend is a mirror: puts and frees go through, reads never do. Get,
// TryGet and the pre-body read of a declared read set all return the
// cell's write-once value, so what a step reads is the same with or
// without a backend:
//
//   - Put mirrors each item after the local store has accepted it (so the
//     write-once rule is already enforced — a re-put fails the graph and
//     never reaches the backend) and before any parked consumer is woken,
//     so the backend receives every item before the items computed from it.
//     A backend may buffer the mirror (internal/dist batches puts into one
//     frame per shard); the ordering holds for the call, not the wire. Put
//     returns an opaque handle, which the item's cell keeps.
//   - Free receives that handle when get-count garbage collection frees the
//     item, so the mirror holds what the graph holds live: once per
//     mirrored item of a collection with a get-count, outside any item lock
//     and never before its Put returned (an item freed while its Put was in
//     the backend — a get-count of 0, or consumers faster than the mirror —
//     is freed by the putting goroutine once Put returns). Free has no
//     error: a backend that cannot deliver a free returns that from Flush.
//   - Flush is the end-of-run barrier. The graph calls it once at quiesce,
//     after the last step retired and before Run returns, so any buffered
//     mirror, free or failed check surfaces as the run's error instead of
//     being lost with the buffer. A backend with no internal buffering
//     returns nil.
//
// Backends own their robustness: transient transport errors must be
// absorbed internally (retry, reconnect, respawn, replay, degrade — see
// internal/dist's degradation ladder). A non-nil error from Put or Flush
// is terminal and fails the graph. Put and Free are called concurrently
// from every worker and must be safe for concurrent use.
type ItemBackend interface {
	Put(coll string, key, val any) (handle uint32, err error)
	Free(handle uint32)
	Flush() error
}

// WithItemBackend installs an external item-store backend on the graph.
// Write-before-Run configuration, like SetHooks; nil (the default) keeps
// the item collections purely in-process with zero overhead beyond one nil
// check per put.
func (g *Graph) WithItemBackend(b ItemBackend) *Graph {
	g.backend = b
	return g
}

// BackendBusy is the number of operations currently inside a backend call —
// including any retry/backoff window the backend is sitting out internally.
// A progress watch (bench.Check) uses it to tell "waiting on the backend"
// apart from livelock: a run whose puts have stopped but whose BackendBusy
// is nonzero is waiting on the transport, not spinning.
func (g *Graph) BackendBusy() int64 { return g.backendBusy.Load() }

// mirror mirrors the put of k that just filled c to the backend and hands
// the cell the backend's handle — or frees the item, if get-count GC freed
// the cell while the put was in the backend (see ItemBackend). A backend
// error is terminal and is not counted: Stats.BackendPuts reports
// operations the backend accepted.
func (c place[K, V]) mirror(k K, v V) {
	ic := c.ic
	g := ic.g
	g.backendBusy.Add(1)
	h, err := g.backend.Put(ic.name, k, v)
	g.backendBusy.Add(-1)
	if err != nil {
		g.fail(fmt.Errorf("cnc: item backend put %s[%v]: %w", ic.name, k, err))
		return
	}
	g.stats.backendPuts.Add(1)
	if ic.getCount == nil {
		return
	}
	c.mu.Lock()
	freed := c.state() == cellFreed
	c.handle, c.mirrored = h, !freed
	c.mu.Unlock()
	if freed {
		g.backend.Free(h)
	}
}

// flushBackend runs the backend's end-of-run flush barrier, surfacing any
// buffered mirror or failed check as a graph error. Called once by
// RunContext after quiesce.
func (g *Graph) flushBackend() {
	if g.backend == nil {
		return
	}
	g.backendBusy.Add(1)
	err := g.backend.Flush()
	g.backendBusy.Add(-1)
	if err != nil {
		g.fail(fmt.Errorf("cnc: item backend flush: %w", err))
	}
}
