package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrDeadline marks a request whose per-request deadline expired before any
// attempt succeeded. It always wraps the last transport error too, so
// callers can see both the policy failure (errors.Is(err, ErrDeadline)) and
// the underlying cause.
var ErrDeadline = errors.New("dist: request deadline exceeded")

// Clock abstracts time for the retry engine so its policy is unit-testable
// on a fake clock — no real sleeping, no flaky timing assertions.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// RealClock is the wall-clock Clock.
var RealClock Clock = realClock{}

// Backoff is an exponential backoff schedule with jitter. A coordinator
// derives its shards' schedule from Options.RequestTimeout.
type Backoff struct {
	// Base is the first delay.
	Base time.Duration
	// Max caps the grown delay, pre-jitter.
	Max time.Duration
	// Factor is the per-attempt growth.
	Factor float64
	// Jitter scales a uniform random addition: the delay for attempt k is
	// grown(k) * (1 + Jitter*U[0,1)). Jitter de-synchronises retry storms
	// when several shards fail together.
	Jitter float64
}

// delay computes the post-jitter delay for 0-based attempt k.
func (b Backoff) delay(k int, rng *rand.Rand) time.Duration {
	d := float64(b.Base)
	for i := 0; i < k; i++ {
		d *= b.Factor
		if d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Jitter > 0 && rng != nil {
		d *= 1 + b.Jitter*rng.Float64()
	}
	return time.Duration(d)
}

// Retrier runs operations under a deadline with exponential backoff. The
// zero value is not usable; construct with NewRetrier.
type Retrier struct {
	backoff Backoff
	clock   Clock
	// OnRetry, when non-nil, is called once per re-attempt (not for the
	// first attempt) — the coordinator's Retries counter hook.
	OnRetry func()

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetrier builds a retrier sleeping on clock and drawing jitter from
// rng (nil disables jitter).
func NewRetrier(b Backoff, clock Clock, rng *rand.Rand) *Retrier {
	return &Retrier{backoff: b, clock: clock, rng: rng}
}

// Do runs op until it succeeds or the deadline expires. The deadline is
// checked *before* sleeping: if the next backoff would overrun it, Do
// returns immediately with ErrDeadline wrapping the last transport error —
// it never sleeps into a deadline it already knows it will miss.
func (r *Retrier) Do(deadline time.Time, op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		r.mu.Lock()
		d := r.backoff.delay(attempt, r.rng)
		r.mu.Unlock()
		if r.clock.Now().Add(d).After(deadline) {
			return fmt.Errorf("%w (attempt %d, next backoff %v): %w",
				ErrDeadline, attempt+1, d, err)
		}
		if r.OnRetry != nil {
			r.OnRetry()
		}
		r.clock.Sleep(d)
	}
}
