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

// ItemBackend is an external item-store backend — the seam the distributed
// runtime (internal/dist) plugs a sharded multi-process store into without
// this package knowing anything about processes, sockets or codecs.
//
// With a backend installed (Graph.WithItemBackend), every item collection
// becomes a write-through cache over it:
//
//   - Put mirrors each item to the backend synchronously, after the local
//     store has accepted it (so the write-once rule is already enforced)
//     and before any parked consumer is woken. The ordering is the
//     distributed read-your-writes guarantee for woken consumers: by the
//     time a parked step re-runs, the backend holds the item durably — or
//     the backend has degraded and said so by returning nil anyway. A
//     consumer that observes the item through its own speculative timing
//     (the local insert precedes the mirror) can race the in-flight
//     mirror; backends must absorb that window in Get.
//   - PutBatch is the batch form of Put: semantically identical to calling
//     Put once per op, but the backend may aggregate the whole batch into
//     one round trip. ItemCollection.PutInto stages its mirror into the
//     enclosing Burst, whose Flush delivers the batch through PutBatch
//     *before* any of the burst's waiter wakeups reach the run queue — the
//     batched form of the same read-your-writes ordering.
//   - Get fetches the authoritative value from the backend on every local
//     hit; the locally cached value is used only for existence tracking
//     (parking, wakeups, get-count GC, discipline checks). A backend may
//     itself answer from a read-your-writes cache and cross-check a sample
//     of reads against the remote store (internal/dist does), in which
//     case the data plane is proven statistically instead of per read.
//
// Backends own their robustness: transient transport errors must be
// absorbed internally (retry, reconnect, respawn, replay, degrade to a
// local log — see internal/dist's degradation ladder). A non-nil error from
// any method is terminal and fails the graph. All methods are called
// concurrently from every worker and must be safe for concurrent use.
//
// TryGet is intentionally not routed through the backend: the non-blocking
// variant polls it in a hot loop, and a poll miss is not a data access.
type ItemBackend interface {
	Put(coll string, key, val any) error
	PutBatch(ops []PutOp) error
	Get(coll string, key any) (any, error)
}

// BackendFlusher is the optional flush/barrier hook of an ItemBackend that
// buffers mirror traffic internally (batching puts into frames, deferring
// cross-checks). The graph calls Flush once at quiesce, after the last step
// retired and before Run returns, so any buffered mirror or deferred
// verification error surfaces as the run's error instead of being lost with
// the buffer. A backend with no internal buffering simply doesn't implement
// it.
type BackendFlusher interface {
	Flush() error
}

// WithItemBackend installs an external item-store backend on the graph.
// Write-before-Run configuration, like SetHooks; nil (the default) keeps
// the item collections purely in-process with zero overhead beyond one nil
// check per put/get.
func (g *Graph) WithItemBackend(b ItemBackend) *Graph {
	g.backend = b
	return g
}

// ItemBackendInstalled reports whether the graph routes item storage
// through an external backend.
func (g *Graph) ItemBackendInstalled() bool { return g.backend != nil }

// BackendBusy is the number of operations currently inside a backend call —
// including any retry/backoff window the backend is sitting out internally.
// External watchdogs use it to tell "parked waiting on a remote get" apart
// from livelock: a run whose puts have stopped but whose BackendBusy is
// nonzero is waiting on the transport, not spinning
// (WatchdogConfig.RemoteBusy).
func (g *Graph) BackendBusy() int64 { return g.backendBusy.Load() }

// backendPut mirrors one accepted put to the backend, maintaining the busy
// gauge and counters. A backend error is terminal (see ItemBackend) and is
// not counted: Stats.BackendPuts reports operations the backend accepted.
func (g *Graph) backendPut(coll string, key, val any) {
	b := g.backend
	if b == nil {
		return
	}
	g.backendBusy.Add(1)
	err := b.Put(coll, key, val)
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
	b := g.backend
	if b == nil || len(ops) == 0 {
		return
	}
	g.backendBusy.Add(1)
	err := b.PutBatch(ops)
	g.backendBusy.Add(-1)
	if err != nil {
		g.fail(fmt.Errorf("cnc: item backend put batch of %d (first %s[%v]): %w",
			len(ops), ops[0].Coll, ops[0].Key, err))
		return
	}
	g.stats.backendPuts.Add(uint64(len(ops)))
}

// backendGet fetches the authoritative value of a locally-present item from
// the backend. It returns (local, false) when no backend is installed and
// on (terminal, already-recorded) backend errors, so callers always have a
// value to hand the step. Stats.BackendGets counts only successful fetches.
func (g *Graph) backendGet(coll string, key, local any) (any, bool) {
	b := g.backend
	if b == nil {
		return local, false
	}
	g.backendBusy.Add(1)
	v, err := b.Get(coll, key)
	g.backendBusy.Add(-1)
	if err != nil {
		g.fail(fmt.Errorf("cnc: item backend get %s[%v]: %w", coll, key, err))
		return local, false
	}
	g.stats.backendGets.Add(1)
	return v, true
}

// flushBackend runs the backend's optional end-of-run flush barrier,
// surfacing any buffered mirror or deferred verification error as a graph
// error. Called once by RunContext after quiesce.
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
