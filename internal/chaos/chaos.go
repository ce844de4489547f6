// Package chaos is the fault-injection harness for the repository's
// runtimes. It perturbs CnC graph executions through the cnc.Hooks
// interception points — step panics, transient step errors, delayed item
// puts, dropped tags — and the sharded tier through its transport seam,
// and drives every run through bench.Check (deadline, livelock watchdog,
// verification and riders), so the robustness properties the runtimes
// claim (panic containment, precise deadlock reports, cooperative
// cancellation, retry-based recovery) are exercised under adversarial
// schedules instead of only on the happy path.
//
// The package deliberately lives outside the runtimes: they expose generic
// hooks (cnc.Hooks, cnc.Graph.SetRetry, dist.Coordinator.SetFrameHook) and
// all chaos-specific behaviour is composed here. Nothing but tests imports
// it.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dpflow/internal/cnc"
)

// ErrInjected marks every failure this package injects, so tests and the
// Runner can tell an injected fault from a genuine runtime bug with
// errors.Is (error-returning faults preserve the chain; panic faults
// surface through the runtime's panic-containment message and are matched
// by name).
var ErrInjected = errors.New("chaos: injected fault")

// Probe records what a fault actually did during one run: one entry per
// injection, labelled "step@tag" or "coll[key]". Faults report their probe
// from Arm so tests can assert both that the fault fired and where.
type Probe struct {
	mu    sync.Mutex
	fired []string
}

func (p *Probe) record(ev string) {
	p.mu.Lock()
	p.fired = append(p.fired, ev)
	p.mu.Unlock()
}

// Count returns the number of injections so far.
func (p *Probe) Count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.fired)
}

// Fired returns a copy of the injection log.
func (p *Probe) Fired() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.fired...)
}

// Fault is one injectable failure mode. Arm installs the fault's hooks on
// the graph (replacing any hook set) and returns the probe recording its
// injections. A fault must be armed on at most one graph at a time.
type Fault interface {
	// Name identifies the fault in errors and logs.
	Name() string
	// Recoverable reports whether a sufficient step retry budget absorbs
	// the fault (true for pre-body errors and panics, which fail attempts
	// before any Put; false for dropped tags, which lose work silently).
	Recoverable() bool
	// Arm installs the fault on g, drawing all randomness from rng.
	Arm(g *cnc.Graph, rng *rand.Rand) *Probe
}

// armer is the shared fire-decision state of a fault: a seeded RNG (not
// thread-safe, hence the mutex — hooks run concurrently on every worker)
// and a total injection budget.
type armer struct {
	mu   sync.Mutex
	rng  *rand.Rand
	prob float64
	left int
}

func newArmer(rng *rand.Rand, prob float64, times int) *armer {
	if prob <= 0 {
		prob = 0.1
	}
	if times <= 0 {
		times = 1
	}
	return &armer{rng: rng, prob: prob, left: times}
}

// fire decides one injection opportunity.
func (a *armer) fire() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.left <= 0 || a.rng.Float64() >= a.prob {
		return false
	}
	a.left--
	return true
}

// StepError injects transient step failures: each execution attempt fails
// with probability Prob (before the body runs, so the attempt has no side
// effects and re-execution is sound) until Times injections have happened.
// A retry budget >= Times is guaranteed to absorb it.
type StepError struct {
	Prob  float64 // per-attempt injection probability (default 0.1)
	Times int     // total injection budget (default 1)
}

// Name implements Fault.
func (f *StepError) Name() string { return "step-error" }

// Recoverable implements Fault.
func (f *StepError) Recoverable() bool { return true }

// Arm implements Fault.
func (f *StepError) Arm(g *cnc.Graph, rng *rand.Rand) *Probe {
	p := &Probe{}
	a := newArmer(rng, f.Prob, f.Times)
	g.SetHooks(&cnc.Hooks{BeforeStep: func(step string, tag any) error {
		if !a.fire() {
			return nil
		}
		p.record(fmt.Sprintf("%s@%v", step, tag))
		return fmt.Errorf("%w: transient error in %s@%v", ErrInjected, step, tag)
	}})
	return p
}

// StepPanic injects step panics: like StepError, but the attempt dies by
// panicking inside the BeforeStep hook, which runs under the step's panic
// containment — the runtime must convert it into a step failure, never
// crash a worker. Recoverable by the same retry argument.
type StepPanic struct {
	Prob  float64
	Times int
}

// Name implements Fault.
func (f *StepPanic) Name() string { return "step-panic" }

// Recoverable implements Fault.
func (f *StepPanic) Recoverable() bool { return true }

// Arm implements Fault.
func (f *StepPanic) Arm(g *cnc.Graph, rng *rand.Rand) *Probe {
	p := &Probe{}
	a := newArmer(rng, f.Prob, f.Times)
	g.SetHooks(&cnc.Hooks{BeforeStep: func(step string, tag any) error {
		if !a.fire() {
			return nil
		}
		p.record(fmt.Sprintf("%s@%v", step, tag))
		panic(fmt.Errorf("%w: panic in %s@%v", ErrInjected, step, tag))
	}})
	return p
}

// DelayedPut injects scheduling jitter: item puts stall for Delay with
// probability Prob. It never fails anything — it exists to shake out
// ordering assumptions (a consumer scheduled before its producer's put
// lands must still park and requeue correctly), so every run under it must
// complete with a correct table and no retries.
type DelayedPut struct {
	Prob  float64
	Delay time.Duration // default 1ms
	Times int
}

// Name implements Fault.
func (f *DelayedPut) Name() string { return "delayed-put" }

// Recoverable implements Fault.
func (f *DelayedPut) Recoverable() bool { return true }

// Arm implements Fault.
func (f *DelayedPut) Arm(g *cnc.Graph, rng *rand.Rand) *Probe {
	p := &Probe{}
	a := newArmer(rng, f.Prob, f.Times)
	delay := f.Delay
	if delay <= 0 {
		delay = time.Millisecond
	}
	g.SetHooks(&cnc.Hooks{BeforeItemPut: func(coll string, key any) {
		if !a.fire() {
			return
		}
		p.record(fmt.Sprintf("%s[%v]", coll, key))
		time.Sleep(delay)
	}})
	return p
}

// DropTag injects lost control messages: a tag put is silently discarded
// with probability Prob. The prescribed step instance never exists, so the
// graph either completes without its work (a wrong result the verifier
// must catch) or quiesces into a DeadlockError naming the starved
// consumers. Not recoverable: no retry budget can resurrect a tag the
// runtime never saw.
type DropTag struct {
	Prob  float64
	Times int
}

// Name implements Fault.
func (f *DropTag) Name() string { return "drop-tag" }

// Recoverable implements Fault.
func (f *DropTag) Recoverable() bool { return false }

// Arm implements Fault.
func (f *DropTag) Arm(g *cnc.Graph, rng *rand.Rand) *Probe {
	p := &Probe{}
	a := newArmer(rng, f.Prob, f.Times)
	g.SetHooks(&cnc.Hooks{DropTag: func(coll string, tag any) bool {
		if !a.fire() {
			return false
		}
		p.record(fmt.Sprintf("%s[%v]", coll, tag))
		return true
	}})
	return p
}

// Faults returns one instance of every fault type with the given
// per-opportunity probability and total budget — the standard battery the
// chaos tests sweep.
func Faults(prob float64, times int) []Fault {
	return []Fault{
		&StepError{Prob: prob, Times: times},
		&StepPanic{Prob: prob, Times: times},
		&DelayedPut{Prob: prob, Times: times},
		&DropTag{Prob: prob, Times: times},
	}
}
