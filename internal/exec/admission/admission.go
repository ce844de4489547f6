// Package admission is cross-graph admission control: the process-level
// promotion of the per-graph memory accountant (cnc.WithMemoryLimit,
// PR 2). One Controller guards one process memory budget; tenants hold
// per-tenant quotas; jobs reserve bytes before they run and release them
// when done. The contract mirrors the accountant's, one level up:
//
//   - Admitted reservations never exceed the process budget or the
//     tenant's quota — so when every job also runs under
//     WithMemoryLimit(reservation), the aggregate PeakLiveBytes of all
//     running jobs stays ≤ the process budget whenever nothing stalled or
//     degraded (the accountant guarantees per-graph peak ≤ limit if
//     BackpressureStalls == 0; this controller guarantees Σ limits ≤
//     budget if Degradations == 0 — implications, not equivalences: a
//     stall or a degradation means the bound may have been exceeded, not
//     that it was).
//   - Waiting is strict FIFO across tenants: the queue head is admitted
//     as soon as budget and quota have room, and nothing behind it can
//     jump the queue — a stream of small jobs cannot starve a big one.
//   - Liveness beats the budget, counted: a reservation that could never
//     be satisfied even with everything else drained (bytes > budget, or
//     bytes > quota) is admitted anyway and counted as a Degradation —
//     the process-level analogue of the accountant's forced admission —
//     instead of deadlocking the queue or OOM-killing later.
//
// Callers surface the counters through /metrics; operators alert on
// Degradations > 0 exactly like BackpressureStalls > 0.
package admission

import (
	"context"
	"sync"
)

// Controller guards one process-wide memory budget. Create with New;
// register tenants with Tenant.
type Controller struct {
	mu       sync.Mutex
	budget   int64 // 0 = unlimited
	reserved int64
	queue    []*waiter
	tenants  map[string]*Tenant

	admitted     uint64
	released     uint64
	degradations uint64
	maxQueue     int
}

// Tenant is one client of the controller with its own quota. Obtain with
// Controller.Tenant; safe for concurrent use.
type Tenant struct {
	c        *Controller
	name     string
	quota    int64 // 0 = unlimited (still bounded by the process budget)
	reserved int64

	admitted     uint64
	degradations uint64
}

type waiter struct {
	t     *Tenant
	bytes int64
	ready chan struct{} // closed on admission
	// degraded is set when the admission was forced over budget/quota.
	degraded bool
	// abandoned is set when the waiter's context was cancelled; the pump
	// skips it without reserving.
	abandoned bool
}

// Grant is an admitted reservation. Release it exactly once when the job's
// memory is gone (after the graph quiesced and verification read what it
// needed). Bytes is what was reserved — the value to hand the graph as its
// WithMemoryLimit.
type Grant struct {
	t        *Tenant
	bytes    int64
	degraded bool
	released bool
}

// New creates a controller with the given process budget in bytes;
// budget <= 0 means unlimited (admission is then quota-only).
func New(budget int64) *Controller {
	if budget < 0 {
		budget = 0
	}
	return &Controller{budget: budget, tenants: make(map[string]*Tenant)}
}

// Budget returns the process budget (0 = unlimited).
func (c *Controller) Budget() int64 { return c.budget }

// Tenant returns the named tenant, creating it with the given quota on
// first use (quota <= 0 = unlimited). A later call with a different quota
// updates it; in-flight reservations are unaffected.
func (c *Controller) Tenant(name string, quota int64) *Tenant {
	if quota < 0 {
		quota = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenants[name]
	if t == nil {
		t = &Tenant{c: c, name: name}
		c.tenants[name] = t
	}
	t.quota = quota
	return t
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// fits reports whether a reservation can be taken right now. Caller holds
// c.mu.
func (c *Controller) fits(t *Tenant, bytes int64) bool {
	if c.budget > 0 && c.reserved+bytes > c.budget {
		return false
	}
	if t.quota > 0 && t.reserved+bytes > t.quota {
		return false
	}
	return true
}

// take records the reservation. Caller holds c.mu.
func (c *Controller) take(t *Tenant, bytes int64, degraded bool) {
	c.reserved += bytes
	t.reserved += bytes
	c.admitted++
	t.admitted++
	if degraded {
		c.degradations++
		t.degradations++
	}
}

// Admit blocks until the reservation is granted (FIFO, respecting the
// process budget and the tenant quota), the context is cancelled, or the
// reservation is found hopeless and force-admitted as a counted
// degradation. bytes <= 0 is admitted immediately without reserving (an
// unsized job: admission control has nothing to arbitrate).
func (t *Tenant) Admit(ctx context.Context, bytes int64) (*Grant, error) {
	if bytes <= 0 {
		return &Grant{t: t}, nil
	}
	c := t.c
	c.mu.Lock()
	// Fast path: empty queue and room available. Admission never overtakes
	// the queue — with waiters present even a fitting request lines up —
	// and hopeless requests go through the queue too, so their forced
	// admission waits for in-flight reservations to drain first.
	if len(c.queue) == 0 && c.fits(t, bytes) {
		c.take(t, bytes, false)
		c.mu.Unlock()
		return &Grant{t: t, bytes: bytes}, nil
	}
	w := &waiter{t: t, bytes: bytes, ready: make(chan struct{})}
	c.queue = append(c.queue, w)
	if len(c.queue) > c.maxQueue {
		c.maxQueue = len(c.queue)
	}
	// The new tail might itself be admissible (everything ahead of it may
	// have been abandoned) — pump once before sleeping.
	c.pumpLocked()
	c.mu.Unlock()

	select {
	case <-w.ready:
		return &Grant{t: t, bytes: bytes, degraded: w.degraded}, nil
	case <-ctx.Done():
		c.mu.Lock()
		select {
		case <-w.ready:
			// Admission raced the cancellation and won; honour it, the
			// caller observes ctx itself if it still wants to bail (and
			// then releases the grant).
			c.mu.Unlock()
			return &Grant{t: t, bytes: bytes, degraded: w.degraded}, nil
		default:
		}
		w.abandoned = true
		c.dropAbandonedLocked()
		c.pumpLocked() // the departed head may unblock the next waiter
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Release returns the grant's reservation to the budget and admits any
// newly-fitting waiters. Idempotent.
func (g *Grant) Release() {
	if g == nil || g.released || g.bytes == 0 {
		if g != nil {
			g.released = true
		}
		return
	}
	g.released = true
	c := g.t.c
	c.mu.Lock()
	c.reserved -= g.bytes
	g.t.reserved -= g.bytes
	c.released++
	c.pumpLocked()
	c.mu.Unlock()
}

// Bytes returns the reservation size (the job's WithMemoryLimit value);
// 0 for unsized jobs.
func (g *Grant) Bytes() int64 { return g.bytes }

// Degraded reports whether this admission was forced over budget/quota.
func (g *Grant) Degraded() bool { return g.degraded }

// pumpLocked admits queue heads while they fit. Strict FIFO: the first
// non-abandoned waiter that does not fit stops the pump — unless it is
// hopeless AND nothing is currently reserved, in which case waiting is
// pointless (no release could ever make room) and it is force-admitted as
// a counted degradation. Caller holds c.mu.
func (c *Controller) pumpLocked() {
	for len(c.queue) > 0 {
		w := c.queue[0]
		if w.abandoned {
			c.queue = c.queue[1:]
			continue
		}
		degraded := false
		if !c.fits(w.t, w.bytes) {
			// A hopeless head would park the whole queue forever; degrade
			// it the moment no live reservation could ever make room — the
			// admission analogue of the accountant's idle-graph forced
			// admission. While relevant reservations are still out we keep
			// waiting: their release bounds the overshoot to the one
			// oversized job.
			force := false
			if c.budget > 0 && w.bytes > c.budget {
				// Never fits the process budget: wait only for the process
				// to drain.
				force = c.reserved == 0
			} else if w.t.quota > 0 && w.bytes > w.t.quota {
				// Never fits the tenant quota: wait for the tenant to
				// drain and the budget to have room the normal way.
				force = w.t.reserved == 0 && !c.budgetBlocked(w.bytes)
			}
			if !force {
				return
			}
			degraded = true
		}
		c.queue = c.queue[1:]
		c.take(w.t, w.bytes, degraded)
		w.degraded = degraded
		close(w.ready)
	}
}

// budgetBlocked reports whether the process budget (as opposed to a
// tenant quota) is what blocks a reservation of the given size right now.
// Caller holds c.mu.
func (c *Controller) budgetBlocked(bytes int64) bool {
	return c.budget > 0 && c.reserved+bytes > c.budget
}

// dropAbandonedLocked compacts abandoned waiters anywhere in the queue
// (cancellation is the only way to leave it from the middle). Caller
// holds c.mu.
func (c *Controller) dropAbandonedLocked() {
	q := c.queue[:0]
	for _, w := range c.queue {
		if !w.abandoned {
			q = append(q, w)
		}
	}
	for i := len(q); i < len(c.queue); i++ {
		c.queue[i] = nil
	}
	c.queue = q
}

// TenantStats is one tenant's slice of the controller snapshot.
type TenantStats struct {
	Name         string
	Quota        int64 // 0 = unlimited
	Reserved     int64
	Admitted     uint64
	Degradations uint64
}

// Stats is a point-in-time snapshot of the controller.
type Stats struct {
	Budget        int64 // 0 = unlimited
	Reserved      int64
	QueueDepth    int    // waiters currently queued
	MaxQueueDepth int    // high-water mark of QueueDepth
	Admitted      uint64 // grants handed out (including degraded)
	Released      uint64 // grants returned
	Degradations  uint64 // forced admissions over budget/quota
	Tenants       []TenantStats
}

// Stats returns a snapshot; safe to call concurrently with admissions.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	depth := 0
	for _, w := range c.queue {
		if !w.abandoned {
			depth++
		}
	}
	s := Stats{
		Budget:        c.budget,
		Reserved:      c.reserved,
		QueueDepth:    depth,
		MaxQueueDepth: c.maxQueue,
		Admitted:      c.admitted,
		Released:      c.released,
		Degradations:  c.degradations,
	}
	for _, t := range c.tenants {
		s.Tenants = append(s.Tenants, TenantStats{
			Name:         t.name,
			Quota:        t.quota,
			Reserved:     t.reserved,
			Admitted:     t.admitted,
			Degradations: t.degradations,
		})
	}
	return s
}
