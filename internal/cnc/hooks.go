package cnc

// Hooks intercepts runtime events, primarily for fault injection (see
// internal/chaos) and tracing. All fields are optional. Hooks run inline on
// the runtime's hot paths; BeforeStep additionally runs inside the calling
// step's panic containment, so a panic raised by the hook is recorded
// exactly like a panic in the step body — which is how the chaos layer
// injects step panics without the runtime carrying any chaos-specific code.
type Hooks struct {
	// BeforeStep runs before every execution attempt of step@tag, including
	// re-executions after a speculative abort and retries. Returning a
	// non-nil error fails the attempt as if the step body returned it;
	// panicking fails it as a contained step panic. Both paths are subject
	// to the step's retry budget.
	BeforeStep func(step string, tag any) error
	// DropTag runs on every tag put; returning true silently discards the
	// tag, so no step instance is ever prescribed for it. The graph then
	// either completes without the instance or quiesces into a
	// DeadlockError naming exactly the instances the drop starved.
	DropTag func(coll string, tag any) bool
	// BeforeItemPut runs before every item put — the hook point for delay
	// injection. It must not itself put items or tags.
	BeforeItemPut func(coll string, key any)
}

// SetHooks installs h on the graph. Call it before Run; the runtime reads
// the hook set without synchronisation once running.
func (g *Graph) SetHooks(h *Hooks) { g.hooks = h }

// SetRetry lets every step instance re-execute a failed attempt (an error
// from the body or a BeforeStep hook, or a contained panic) up to n times
// before the failure fails the graph; n ≤ 0 means no retries. Re-execution
// is sound because steps are written gets-first/puts-last: an attempt that
// fails before its first Put has no observable side effects. Steps that can
// fail *after* putting items or tags must not be retried: the re-executed
// Put would trip the single-assignment check (items) or duplicate instances
// (unmemoized tags). Call it before Run.
func (g *Graph) SetRetry(n int) { g.retry = n }
