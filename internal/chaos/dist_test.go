package chaos

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// stubTransport implements TransportControl over nothing: it records kills
// and replays synthetic frames through whatever hook is installed.
type stubTransport struct {
	mu     sync.Mutex
	shards int
	hook   func(dir Dir, shard int, msgType string, size int) Verdict
	killed []int
}

func (s *stubTransport) Shards() int { return s.shards }

func (s *stubTransport) SetFrameHook(fn func(dir Dir, shard int, msgType string, size int) Verdict) {
	s.mu.Lock()
	s.hook = fn
	s.mu.Unlock()
}

func (s *stubTransport) KillWorker(shard int) error {
	s.mu.Lock()
	s.killed = append(s.killed, shard)
	s.mu.Unlock()
	return nil
}

// frame pushes one synthetic frame through the installed hook.
func (s *stubTransport) frame(dir Dir, shard int, msgType string, size int) Verdict {
	s.mu.Lock()
	fn := s.hook
	s.mu.Unlock()
	if fn == nil {
		return Verdict{}
	}
	return fn(dir, shard, msgType, size)
}

func (s *stubTransport) kills() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.killed...)
}

func driveFrames(t *testing.T, tc *stubTransport, n int) (dropped, delayed, reset int) {
	t.Helper()
	for i := 0; i < n; i++ {
		v := tc.frame(Dir(i%2), i%tc.shards, "put", 64)
		if v.Drop {
			dropped++
		}
		if v.Delay > 0 {
			delayed++
		}
		if v.Reset {
			reset++
		}
	}
	return
}

func TestMessageDropFiresWithinBudget(t *testing.T) {
	tc := &stubTransport{shards: 2}
	f := &MessageDrop{Prob: 1.0, Times: 3}
	p := f.ArmDist(tc, rand.New(rand.NewSource(1)))
	dropped, _, _ := driveFrames(t, tc, 10)
	if dropped != 3 {
		t.Fatalf("dropped %d frames, want exactly the budget 3", dropped)
	}
	if p.Count() != 3 {
		t.Fatalf("probe recorded %d, want 3", p.Count())
	}
}

func TestMessageDelayVerdict(t *testing.T) {
	tc := &stubTransport{shards: 2}
	f := &MessageDelay{Prob: 1.0, Times: 1, Delay: 7 * time.Millisecond}
	p := f.ArmDist(tc, rand.New(rand.NewSource(1)))
	v := tc.frame(DirSend, 0, "get", 32)
	if v.Delay != 7*time.Millisecond {
		t.Fatalf("verdict delay = %v, want 7ms", v.Delay)
	}
	if _, delayed, _ := driveFrames(t, tc, 5); delayed != 0 {
		t.Fatal("delay fired past its budget")
	}
	if p.Count() != 1 {
		t.Fatalf("probe recorded %d, want 1", p.Count())
	}
}

func TestConnResetVerdict(t *testing.T) {
	tc := &stubTransport{shards: 3}
	f := &ConnReset{Prob: 1.0, Times: 2}
	p := f.ArmDist(tc, rand.New(rand.NewSource(1)))
	_, _, reset := driveFrames(t, tc, 8)
	if reset != 2 {
		t.Fatalf("reset %d frames, want 2", reset)
	}
	if p.Count() != 2 {
		t.Fatalf("probe recorded %d, want 2", p.Count())
	}
}

func TestProcessKillWarmupAndTarget(t *testing.T) {
	tc := &stubTransport{shards: 4}
	f := &ProcessKill{Prob: 1.0, Times: 1, After: 3}
	p := f.ArmDist(tc, rand.New(rand.NewSource(1)))
	// First three frames are warmup: no kill may fire.
	for i := 0; i < 3; i++ {
		tc.frame(DirSend, i%4, "put", 64)
	}
	if p.Count() != 0 {
		t.Fatalf("kill fired during warmup (%d)", p.Count())
	}
	tc.frame(DirRecv, 2, "ack", 16)
	deadline := time.Now().Add(2 * time.Second)
	for len(tc.kills()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond) // the kill races the frame on purpose
	}
	kills := tc.kills()
	if len(kills) != 1 || kills[0] != 2 {
		t.Fatalf("kills = %v, want exactly shard 2 (the frame's own shard)", kills)
	}
	if p.Count() != 1 {
		t.Fatalf("probe recorded %d, want 1", p.Count())
	}
	// Budget exhausted: further frames must not kill.
	driveFrames(t, tc, 10)
	time.Sleep(5 * time.Millisecond)
	if len(tc.kills()) != 1 {
		t.Fatalf("kills past budget: %v", tc.kills())
	}
}

func TestDistFaultsBattery(t *testing.T) {
	fs := DistFaults(0.5, 2)
	if len(fs) != 4 {
		t.Fatalf("battery has %d faults, want 4", len(fs))
	}
	names := map[string]bool{}
	for _, f := range fs {
		names[f.Name()] = true
	}
	for _, want := range []string{"process-kill", "message-drop", "message-delay", "conn-reset"} {
		if !names[want] {
			t.Fatalf("battery missing %q (got %v)", want, names)
		}
	}
}
