package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dpflow/internal/dist"
)

// This file extends the fault vocabulary to the process level. The in-graph
// faults (StepError, DropTag, ...) perturb one runtime through cnc.Hooks;
// the distributed faults below perturb the *transport* between a
// coordinator and its shard workers through the seam internal/dist exposes
// (Coordinator.SetFrameHook and KillWorker). The layering mirrors
// chaos/cnc: the runtime owns the seam and its types (dist.Dir,
// dist.Verdict), this package composes faults on top, and no production
// package imports chaos.

// TransportControl is the seam a distributed runtime exposes for
// process-level fault injection. *dist.Coordinator implements it; a stub
// suffices for tests of the faults themselves.
//
// Implementations must tolerate hooks being installed and cleared (set to
// nil) at any moment, including mid-exchange.
type TransportControl interface {
	// Shards is the number of shard workers (fault targets).
	Shards() int
	// SetFrameHook installs fn on every frame crossing the boundary in
	// either direction; nil uninstalls. size is the encoded frame length in
	// bytes, msgType its wire discriminator (e.g. "putbatch", "ack").
	SetFrameHook(fn func(dir dist.Dir, shard int, msgType string, size int) dist.Verdict)
	// KillWorker forcefully terminates the given shard's worker process
	// (SIGKILL semantics: no cleanup, no goodbye frame). The runtime's
	// supervisor is expected to notice via a failed exchange or heartbeat
	// and recover.
	KillWorker(shard int) error
}

// DistFault is a process-level injectable failure mode, the transport-tier
// analogue of Fault. ArmDist installs the fault on a live transport and
// returns the probe recording its injections.
//
// All four distributed faults are recoverable by construction: the
// coordinator's retry/respawn/replay ladder must absorb every one of them
// or degrade gracefully — a run that verifies is the only acceptable
// outcome, which is exactly what the chaos sweep asserts.
type DistFault interface {
	// Name identifies the fault in errors and logs.
	Name() string
	// ArmDist installs the fault on tc, drawing all randomness from rng.
	ArmDist(tc TransportControl, rng *rand.Rand) *Probe
}

// ProcessKill SIGKILLs a randomly chosen shard worker after letting a few
// frames through, forcing the supervisor down the respawn-and-replay path.
// Each injection kills one worker; the budget bounds total kills.
type ProcessKill struct {
	Prob  float64 // per-frame kill probability once armed (default 0.1)
	Times int     // total kill budget (default 1)
	// After is the number of frames to let pass before kills may start
	// (default 4), so the store holds state worth replaying.
	After int
}

// Name implements DistFault.
func (f *ProcessKill) Name() string { return "process-kill" }

// ArmDist implements DistFault.
func (f *ProcessKill) ArmDist(tc TransportControl, rng *rand.Rand) *Probe {
	p := &Probe{}
	a := newArmer(rng, f.Prob, f.Times)
	after := f.After
	if after <= 0 {
		after = 4
	}
	var seen int
	var mu sync.Mutex
	tc.SetFrameHook(func(dir dist.Dir, shard int, msgType string, size int) dist.Verdict {
		mu.Lock()
		seen++
		warm := seen > after
		mu.Unlock()
		if !warm || !a.fire() {
			return dist.Verdict{}
		}
		// Kill the frame's own shard: the exchange in flight is the one
		// that observes the death, the worst case for the supervisor.
		p.record(fmt.Sprintf("kill shard %d (%s %s)", shard, dir, msgType))
		// The frame itself still passes; the kill races it, which is the
		// point — either order must recover.
		go tc.KillWorker(shard)
		return dist.Verdict{}
	})
	return p
}

// MessageDrop silently discards frames, in both directions: lost requests
// (worker never sees the put/get) and lost responses (coordinator waits for
// an ack that never comes). The per-request deadline must turn each loss
// into a retry.
type MessageDrop struct {
	Prob  float64
	Times int
	// Only restricts the fault to frames of one wire type (the msgType
	// string the frame hook receives, e.g. "putbatch"); empty matches all.
	// Targeting lets the sweep aim at specific protocol machinery — losing
	// a whole batch frame must cost one retry, not one item.
	Only string
}

// Name implements DistFault.
func (f *MessageDrop) Name() string { return "message-drop" }

// ArmDist implements DistFault.
func (f *MessageDrop) ArmDist(tc TransportControl, rng *rand.Rand) *Probe {
	p := &Probe{}
	a := newArmer(rng, f.Prob, f.Times)
	tc.SetFrameHook(func(dir dist.Dir, shard int, msgType string, size int) dist.Verdict {
		if (f.Only != "" && msgType != f.Only) || !a.fire() {
			return dist.Verdict{}
		}
		p.record(fmt.Sprintf("drop %s %s shard %d (%dB)", dir, msgType, shard, size))
		return dist.Verdict{Drop: true}
	})
	return p
}

// MessageDelay stalls frame delivery — transport congestion. Sub-deadline
// delays must be invisible (absorbed by the wait); the sweep also verifies
// the watchdog attributes the quiet period to remote waiting rather than
// declaring a livelock.
type MessageDelay struct {
	Prob  float64
	Delay time.Duration // default 5ms
	Times int
	// Only restricts the fault to one wire type; empty matches all.
	Only string
}

// Name implements DistFault.
func (f *MessageDelay) Name() string { return "message-delay" }

// ArmDist implements DistFault.
func (f *MessageDelay) ArmDist(tc TransportControl, rng *rand.Rand) *Probe {
	p := &Probe{}
	a := newArmer(rng, f.Prob, f.Times)
	delay := f.Delay
	if delay <= 0 {
		delay = 5 * time.Millisecond
	}
	tc.SetFrameHook(func(dir dist.Dir, shard int, msgType string, size int) dist.Verdict {
		if (f.Only != "" && msgType != f.Only) || !a.fire() {
			return dist.Verdict{}
		}
		p.record(fmt.Sprintf("delay %s %s shard %d %v", dir, msgType, shard, delay))
		return dist.Verdict{Delay: delay}
	})
	return p
}

// ConnReset tears a connection down mid-exchange instead of delivering the
// frame — the half-written-frame / peer-crash failure mode, distinct from
// ProcessKill in that the worker process (and its store) survives, so
// reconnecting without replay suffices.
type ConnReset struct {
	Prob  float64
	Times int
	// Only restricts the fault to one wire type; empty matches all.
	Only string
}

// Name implements DistFault.
func (f *ConnReset) Name() string { return "conn-reset" }

// ArmDist implements DistFault.
func (f *ConnReset) ArmDist(tc TransportControl, rng *rand.Rand) *Probe {
	p := &Probe{}
	a := newArmer(rng, f.Prob, f.Times)
	tc.SetFrameHook(func(dir dist.Dir, shard int, msgType string, size int) dist.Verdict {
		if (f.Only != "" && msgType != f.Only) || !a.fire() {
			return dist.Verdict{}
		}
		p.record(fmt.Sprintf("reset %s %s shard %d", dir, msgType, shard))
		return dist.Verdict{Reset: true}
	})
	return p
}

// DistFaults returns one instance of every process-level fault with the
// given per-frame probability and total budget — the battery the
// distributed chaos sweep crosses with benchmarks and seeds.
func DistFaults(prob float64, times int) []DistFault {
	return []DistFault{
		&ProcessKill{Prob: prob, Times: times},
		&MessageDrop{Prob: prob, Times: times},
		&MessageDelay{Prob: prob, Times: times},
		&ConnReset{Prob: prob, Times: times},
	}
}
