package cnc

import "fmt"

// PutOp is one element of a batched backend mirror: the same
// (collection, key, value) triple ItemBackend.Put carries, in a form that
// can be aggregated so a whole burst of puts crosses the backend seam — and,
// for a distributed backend, the wire — in one call instead of one per item.
type PutOp struct {
	Coll string
	Key  any
	Val  any
}

// ItemBackend is an external item store the graph mirrors its items to —
// the seam the distributed runtime (internal/dist) plugs a sharded
// multi-process store into without this package knowing anything about
// processes, sockets or codecs.
//
// A backend is a mirror: puts go through, reads never do. Get, TryGet and
// the pre-body read of a declared read set all return the cell's write-once
// value, so what a step reads is the same with or without a backend:
//
//   - Put mirrors each item after the local store has accepted it (so the
//     write-once rule is already enforced — a re-put fails the graph and
//     never reaches the backend) and before any parked consumer is woken,
//     so the backend receives every item before the items computed from it.
//   - PutBatch is the batch form of Put: semantically identical to calling
//     Put once per op, but the backend may aggregate the whole batch into
//     one round trip. ItemCollection.PutInto stages its mirror into the
//     enclosing Burst, whose Flush delivers the batch through PutBatch
//     before any of the burst's waiter wakeups reach the run queue.
//
// Backends own their robustness: transient transport errors must be
// absorbed internally (retry, reconnect, respawn, replay, degrade — see
// internal/dist's degradation ladder). A non-nil error from either method
// is terminal and fails the graph. Both are called concurrently from every
// worker and must be safe for concurrent use.
type ItemBackend interface {
	Put(coll string, key, val any) error
	PutBatch(ops []PutOp) error
}

// BackendFlusher is the optional flush/barrier hook of an ItemBackend that
// buffers mirror traffic internally (batching puts into frames, checking
// them after the ack). The graph calls Flush once at quiesce, after the
// last step retired and before Run returns, so any buffered mirror or
// failed check surfaces as the run's error instead of being lost with the
// buffer. A backend with no internal buffering simply doesn't implement it.
type BackendFlusher interface {
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
// External watchdogs use it to tell "waiting on the backend" apart from
// livelock: a run whose puts have stopped but whose BackendBusy is nonzero
// is waiting on the transport, not spinning (WatchdogConfig.RemoteBusy).
func (g *Graph) BackendBusy() int64 { return g.backendBusy.Load() }

// backendPut mirrors one accepted put to the backend, maintaining the busy
// gauge and counters. A backend error is terminal (see ItemBackend) and is
// not counted: Stats.BackendPuts reports operations the backend accepted.
func (g *Graph) backendPut(coll string, key, val any) {
	g.backendBusy.Add(1)
	err := g.backend.Put(coll, key, val)
	g.backendBusy.Add(-1)
	if err != nil {
		g.fail(fmt.Errorf("cnc: item backend put %s[%v]: %w", coll, key, err))
		return
	}
	g.stats.backendPuts.Add(1)
}

// backendPutBatch mirrors a burst of accepted puts to the backend in one
// call. Like backendPut it is terminal on error and counts only successful
// operations (all of ops, since PutBatch is all-or-error).
func (g *Graph) backendPutBatch(ops []PutOp) {
	g.backendBusy.Add(1)
	err := g.backend.PutBatch(ops)
	g.backendBusy.Add(-1)
	if err != nil {
		g.fail(fmt.Errorf("cnc: item backend put batch of %d (first %s[%v]): %w",
			len(ops), ops[0].Coll, ops[0].Key, err))
		return
	}
	g.stats.backendPuts.Add(uint64(len(ops)))
}

// flushBackend runs the backend's optional end-of-run flush barrier,
// surfacing any buffered mirror or failed check as a graph error. Called
// once by RunContext after quiesce.
func (g *Graph) flushBackend() {
	f, ok := g.backend.(BackendFlusher)
	if !ok {
		return
	}
	g.backendBusy.Add(1)
	err := f.Flush()
	g.backendBusy.Add(-1)
	if err != nil {
		g.fail(fmt.Errorf("cnc: item backend flush: %w", err))
	}
}
