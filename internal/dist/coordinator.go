package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dpflow/internal/cnc"
)

// ErrShardDegraded reports that a shard exhausted its recovery ladder and
// is no longer mirrored — the graceful-degradation terminal state, not a
// failure: nothing reads the mirror, so a fully degraded run is exactly
// single-process execution.
var ErrShardDegraded = errors.New("dist: shard degraded, no longer mirrored")

// errClosed marks operations attempted after Coordinator.Close. It gates
// the recovery ladder too: a retrying request that races Close must not
// respawn a worker the closed coordinator would never reap.
var errClosed = errors.New("dist: coordinator closed")

// Options configures a Coordinator.
type Options struct {
	// Shards is the number of worker processes (default 2).
	Shards int
	// SocketDir hosts the per-shard Unix sockets; empty means a fresh
	// temporary directory owned (and removed) by the coordinator.
	SocketDir string
	// RequestTimeout is the per-request deadline: one full retry cycle
	// (attempts + backoff) must land inside it before the ladder escalates
	// to reconnect/respawn (default 2s).
	RequestTimeout time.Duration
	// AttemptTimeout bounds one send+receive attempt inside the cycle, so
	// a dropped response costs one attempt, not the whole deadline
	// (default RequestTimeout/4, floor 20ms).
	AttemptTimeout time.Duration
	// Backoff is the retry schedule between attempts.
	Backoff Backoff
	// HeartbeatEvery is the health-check period: a shard that has
	// exchanged nothing for this long is sent a PING by its sender. 0 means
	// 250ms, negative disables heartbeats.
	HeartbeatEvery time.Duration
	// MaxRespawns is the per-shard respawn budget before the shard
	// degrades (stops being mirrored). Zero means the default (3); negative
	// means no respawns at all — a lost worker degrades immediately (the
	// degradation tests' configuration).
	MaxRespawns int
	// BatchOps is the per-shard outgoing put buffer's flush threshold in
	// operations: when the buffer holds this many, the shard's sender is
	// kicked to send it as one MsgPutBatch frame (puts that arrive while a
	// frame is in flight ride the next one, so frames can be larger). A
	// put stalls only when the buffer reaches stallFactor times the
	// threshold. Zero means the default (64); negative means 1 (every put
	// kicks the sender — the nearest thing to the pre-batching wire
	// behaviour, for comparison).
	BatchOps int
	// BatchBytes is the same threshold in payload bytes (default 256KB).
	BatchBytes int
	// FlushEvery bounds how long a buffered put may wait for its frame:
	// each shard's sender also flushes at this period, so trickle traffic
	// still reaches the workers promptly between size-triggered flushes.
	// Zero means the default (2ms); negative disables the tick (flushes
	// then happen only on size and at the end-of-run Flush).
	FlushEvery time.Duration
	// VerifySample controls mirror verification: after a put batch is
	// acked, its shard's sender fetches every VerifySample'th acked op
	// back in one MsgGetBatch and byte-compares it with the bytes it sent.
	// Zero means the default (16); 1 verifies every mirrored put (the
	// chaos/CI configuration); negative disables verification entirely.
	VerifySample int
	// Seed seeds the backoff jitter (default 1).
	Seed int64
	// Spawn overrides how a shard worker process is created (tests);
	// default is self-exec with EnvWorkerSocket set (MaybeWorkerChild).
	Spawn func(socketPath string) (*exec.Cmd, error)
	// Clock overrides time for the retry engine (tests); default wall.
	Clock Clock
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 2
	}
	if o.MaxRespawns == 0 {
		o.MaxRespawns = 3
	} else if o.MaxRespawns < 0 {
		o.MaxRespawns = 0
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 2 * time.Second
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = o.RequestTimeout / 4
	}
	if o.AttemptTimeout < 20*time.Millisecond {
		o.AttemptTimeout = 20 * time.Millisecond
	}
	if o.HeartbeatEvery == 0 {
		o.HeartbeatEvery = 250 * time.Millisecond
	}
	if o.BatchOps == 0 {
		o.BatchOps = 64
	} else if o.BatchOps < 0 {
		o.BatchOps = 1
	}
	if o.BatchBytes <= 0 {
		o.BatchBytes = 256 << 10
	}
	if o.FlushEvery == 0 {
		o.FlushEvery = 2 * time.Millisecond
	}
	if o.VerifySample == 0 {
		o.VerifySample = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Clock == nil {
		o.Clock = RealClock
	}
	return o
}

// Counters is the coordinator's observable activity, all monotone.
type Counters struct {
	// RemotePuts counts mirror puts the shards acked (batched puts count
	// one per op, not per frame); PutFrames the MsgPutBatch frames that
	// carried them — the denominator of the puts-per-frame batching ratio.
	RemotePuts, PutFrames atomic.Uint64
	// VerifiedReads counts acked puts fetched back from their shard and
	// byte-compared with the bytes sent: the RemotePuts numbered a
	// multiple of VerifySample, so ⌊RemotePuts/VerifySample⌋ once the
	// Flush barrier has returned.
	VerifiedReads atomic.Uint64
	// Retries counts re-attempts inside request deadlines.
	Retries atomic.Uint64
	// Respawns counts worker processes relaunched by the supervisor,
	// ReplayedPuts the log entries re-delivered to them.
	Respawns, ReplayedPuts atomic.Uint64
	// Degradations counts shards that exhausted recovery and stopped being
	// mirrored.
	Degradations atomic.Uint64
	// BytesOut / BytesIn are frame bytes across all sockets.
	BytesOut, BytesIn atomic.Uint64
	// Heartbeats / HeartbeatFailures count health probes sent and probes
	// that found a shard unhealthy.
	Heartbeats, HeartbeatFailures atomic.Uint64
}

// CounterSnapshot is a plain-value copy of Counters for reports.
// LocalGets and RaceRetries are always 0: the coordinator serves no reads
// (cnc reads every item from its own cell), so none is local and none can
// race its mirror. They stay for the reports that print them.
type CounterSnapshot struct {
	RemotePuts, PutFrames         uint64
	VerifiedReads                 uint64
	Retries                       uint64
	Respawns, ReplayedPuts        uint64
	Degradations                  uint64
	BytesOut, BytesIn             uint64
	Heartbeats, HeartbeatFailures uint64
	LocalGets, RaceRetries        uint64
}

// Snapshot copies the counters.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		RemotePuts: c.RemotePuts.Load(), PutFrames: c.PutFrames.Load(),
		VerifiedReads: c.VerifiedReads.Load(),
		Retries:       c.Retries.Load(),
		Respawns:      c.Respawns.Load(), ReplayedPuts: c.ReplayedPuts.Load(),
		Degradations: c.Degradations.Load(),
		BytesOut:     c.BytesOut.Load(), BytesIn: c.BytesIn.Load(),
		Heartbeats: c.Heartbeats.Load(), HeartbeatFailures: c.HeartbeatFailures.Load(),
	}
}

// shard is the coordinator's view of one worker process.
type shard struct {
	idx    int
	socket string

	// mu owns the shard's one conversation with its worker: the connection
	// and its reader, every exchange on it (a request written, its reply
	// read back, nothing else in flight) and the recovery ladder, which
	// rebuilds the conversation under the same lock. seq numbers the
	// requests, so a reply to anything but the current one is discarded.
	mu       sync.Mutex
	conn     net.Conn
	br       *bufio.Reader
	seq      uint64
	respawns int
	retrier  *Retrier

	degraded atomic.Bool

	// pbufMu guards the outgoing put buffer and the flush numbering. The
	// shard's sender goroutine (sendLoop) owns every flush, so at most one
	// MsgPutBatch frame is in flight and batches leave in enqueue order:
	// flushStarted counts the flushes that have taken the buffer,
	// flushDone the ones whose ack (or terminal error) is in. pbufCond
	// signals both, plus the buffer emptying; kick (capacity 1: a pending
	// kick already promises a flush that starts later) wakes the sender.
	pbufMu       sync.Mutex
	pbufCond     *sync.Cond
	pbuf         []PutMsg
	pbufBytes    int
	flushStarted uint64
	flushDone    uint64
	kick         chan struct{}

	// procMu guards the process handle (KillWorker and the supervisor
	// race by design).
	procMu   sync.Mutex
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	waitDone chan struct{}

	// logMu guards the write-ahead put log: every put to the shard, in
	// order, appended before it is buffered — the replay source for a
	// respawned worker. It needs no index: cnc refuses a re-put before the
	// backend sees it, and nothing reads an entry by key.
	logMu sync.Mutex
	log   []PutMsg
}

// Dir is the direction of a frame crossing the coordinator/worker boundary,
// from the coordinator's point of view.
type Dir int

const (
	// DirSend is a frame leaving the coordinator for a worker.
	DirSend Dir = iota
	// DirRecv is a frame arriving at the coordinator from a worker.
	DirRecv
)

func (d Dir) String() string {
	if d == DirSend {
		return "send"
	}
	return "recv"
}

// Verdict is a frame hook's decision about one frame. The zero value lets
// the frame pass untouched.
type Verdict struct {
	// Drop discards the frame. A dropped request never reaches the worker;
	// a dropped response strands the coordinator's wait — either way the
	// per-attempt deadline must convert the loss into a retry.
	Drop bool
	// Delay stalls the frame's delivery, modelling a congested or
	// scheduler-starved transport. Delays shorter than the attempt deadline
	// must be absorbed invisibly; longer ones behave like Drop.
	Delay time.Duration
	// Reset tears the connection down mid-exchange instead of delivering
	// the frame — the half-written-frame failure mode. The coordinator must
	// reconnect (or respawn) and retry.
	Reset bool
}

type frameHookHolder struct {
	fn func(dir Dir, shard int, msgType string, size int) Verdict
}

// Coordinator owns the worker fleet and implements cnc.ItemBackend (via
// Attach). Its frame hook and KillWorker are the seam process-level faults
// are injected through.
type Coordinator struct {
	opts     Options
	dir      string
	ownsDir  bool
	shards   []*shard
	counters Counters
	hook     atomic.Pointer[frameHookHolder]
	graphSeq atomic.Uint64
	closed   atomic.Bool

	// stop ends the background goroutines (one sender per shard); bg
	// waits for them.
	stop chan struct{}
	bg   sync.WaitGroup

	// termErr latches the first terminal data-plane error (a refused put
	// in an asynchronous flush, a failed mirror check): every later
	// backend operation returns it, so an error detected between a step's
	// put and the run's end still fails the run.
	termErr atomic.Pointer[error]
}

// NewCoordinator spawns the worker fleet and connects to every shard. On
// any startup failure the already-spawned workers are reaped before the
// error returns.
func NewCoordinator(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	c := &Coordinator{opts: opts, dir: opts.SocketDir, stop: make(chan struct{})}
	if c.dir == "" {
		dir, err := os.MkdirTemp("", "dpflow-dist-*")
		if err != nil {
			return nil, fmt.Errorf("dist: socket dir: %w", err)
		}
		c.dir, c.ownsDir = dir, true
	}
	for i := 0; i < opts.Shards; i++ {
		sh := &shard{
			idx:    i,
			socket: filepath.Join(c.dir, fmt.Sprintf("shard-%d.sock", i)),
			kick:   make(chan struct{}, 1),
		}
		sh.pbufCond = sync.NewCond(&sh.pbufMu)
		sh.retrier = NewRetrier(opts.Backoff, opts.Clock, rand.New(rand.NewSource(opts.Seed*31+int64(i))))
		sh.retrier.OnRetry = func() { c.counters.Retries.Add(1) }
		c.shards = append(c.shards, sh)
	}
	for _, sh := range c.shards {
		err := c.spawnWorker(sh)
		if err == nil {
			err = c.connectLocked(sh, time.Now().Add(5*time.Second))
		}
		if err != nil {
			c.Close()
			return nil, err
		}
	}
	for _, sh := range c.shards {
		c.bg.Add(1)
		go c.sendLoop(sh)
	}
	return c, nil
}

// setTerm latches the first terminal data-plane error.
func (c *Coordinator) setTerm(err error) {
	c.termErr.CompareAndSwap(nil, &err)
}

func (c *Coordinator) termError() error {
	if p := c.termErr.Load(); p != nil {
		return *p
	}
	return nil
}

// spawnWorker launches (or relaunches) the shard's process and installs
// the stdin lifeline: the coordinator holds the pipe's write end for the
// worker's whole life, so coordinator death reaps every worker.
func (c *Coordinator) spawnWorker(sh *shard) error {
	var cmd *exec.Cmd
	var err error
	if c.opts.Spawn != nil {
		cmd, err = c.opts.Spawn(sh.socket)
	} else {
		var exe string
		exe, err = os.Executable()
		if err == nil {
			cmd = exec.Command(exe)
			cmd.Env = append(os.Environ(), EnvWorkerSocket+"="+sh.socket)
		}
	}
	if err != nil {
		return fmt.Errorf("dist: spawn shard %d: %w", sh.idx, err)
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return fmt.Errorf("dist: spawn shard %d: stdin: %w", sh.idx, err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("dist: spawn shard %d: %w", sh.idx, err)
	}
	waitDone := make(chan struct{})
	go func() { _ = cmd.Wait(); close(waitDone) }()
	sh.procMu.Lock()
	sh.cmd, sh.stdin, sh.waitDone = cmd, stdin, waitDone
	sh.procMu.Unlock()
	return nil
}

// dial connects to the shard's socket, retrying while the (possibly
// just-spawned) worker comes up.
func (c *Coordinator) dial(sh *shard, deadline time.Time) (net.Conn, error) {
	var lastErr error
	for {
		conn, err := net.DialTimeout("unix", sh.socket, 200*time.Millisecond)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			return nil, lastErr
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// alive reports whether the shard's current worker process is running.
func (c *Coordinator) alive(sh *shard) bool {
	sh.procMu.Lock()
	done := sh.waitDone
	sh.procMu.Unlock()
	if done == nil {
		return false
	}
	select {
	case <-done:
		return false
	default:
		return true
	}
}

// killWorker force-terminates the shard's process and reaps it.
func (c *Coordinator) killWorker(sh *shard) {
	sh.procMu.Lock()
	cmd, stdin, done := sh.cmd, sh.stdin, sh.waitDone
	sh.cmd, sh.stdin, sh.waitDone = nil, nil, nil
	sh.procMu.Unlock()
	if stdin != nil {
		_ = stdin.Close()
	}
	if cmd == nil {
		return
	}
	if done != nil {
		select {
		case <-done: // already exited, Wait already reaped it
			return
		default:
		}
	}
	if cmd.Process != nil {
		_ = cmd.Process.Kill()
	}
	if done != nil {
		<-done // Kill guarantees exit; Wait (in spawnWorker's goroutine) reaps
	}
}

// connectLocked dials the shard's connection if it has none. It refuses
// after Close: a redial there would talk to a worker the coordinator is
// about to reap — or respawn one it never will. Callers hold sh.mu (or,
// during NewCoordinator, have exclusive access).
func (c *Coordinator) connectLocked(sh *shard, deadline time.Time) error {
	if c.closed.Load() {
		return errClosed
	}
	if sh.conn != nil {
		return nil
	}
	conn, err := c.dial(sh, deadline)
	if err != nil {
		return fmt.Errorf("dist: shard %d dial: %w", sh.idx, err)
	}
	sh.conn = conn
	if sh.br == nil {
		sh.br = bufio.NewReaderSize(conn, readBuffer)
	} else {
		sh.br.Reset(conn)
	}
	return nil
}

func (c *Coordinator) dropConnLocked(sh *shard) {
	if sh.conn != nil {
		_ = sh.conn.Close()
		sh.conn = nil
	}
}

// readBuffer sizes the buffered readers on both ends of a shard socket: a
// frame's length prefix and its body share a read syscall.
const readBuffer = 64 << 10

// verdict runs the frame hook on one frame. It sleeps out a Delay, and
// returns a Reset — or a Delay that carried the attempt past its deadline,
// which is a late frame — as the attempt's error; lost reports a Drop.
func (c *Coordinator) verdict(sh *shard, dir Dir, mt byte, size int, deadline time.Time) (lost bool, err error) {
	h := c.hook.Load()
	if h == nil {
		return false, nil
	}
	v := h.fn(dir, sh.idx, MsgName(mt), size)
	if v.Delay > 0 {
		time.Sleep(v.Delay)
		if time.Now().After(deadline) {
			return false, fmt.Errorf("dist: shard %d: %s %s delayed past the attempt deadline", sh.idx, dir, MsgName(mt))
		}
	}
	if v.Reset {
		return false, fmt.Errorf("dist: shard %d: injected connection reset (%s %s)", sh.idx, dir, MsgName(mt))
	}
	return v.Drop, nil
}

// exchange is one attempt of a request on the shard's conversation: stamp
// the frame with the next sequence number, write it, and read replies until
// the one that answers it — a lost or stale reply is skipped, and the read
// deadline turns a reply that never comes into the attempt's error. Fault
// verdicts apply to both directions. Callers hold sh.mu.
func (c *Coordinator) exchange(sh *shard, frame []byte, deadline time.Time) ([]byte, error) {
	if err := c.connectLocked(sh, deadline); err != nil {
		return nil, err
	}
	conn, mt := sh.conn, frame[headerLen]
	sh.seq++
	binary.BigEndian.PutUint64(frame[headerLen+1:], sh.seq)
	lost, err := c.verdict(sh, DirSend, mt, len(frame), deadline)
	if err != nil {
		return nil, err
	}
	if !lost { // a lost request is never written: the read below times out
		_ = conn.SetWriteDeadline(deadline)
		if _, err := conn.Write(frame); err != nil {
			return nil, fmt.Errorf("dist: shard %d write %s: %w", sh.idx, MsgName(mt), err)
		}
		c.counters.BytesOut.Add(uint64(len(frame)))
	}
	_ = conn.SetReadDeadline(deadline)
	for {
		rmt, rseq, pl, wire, err := ReadFrame(sh.br)
		if err != nil {
			return nil, fmt.Errorf("dist: shard %d read: %w", sh.idx, err)
		}
		c.counters.BytesIn.Add(uint64(wire))
		lost, err := c.verdict(sh, DirRecv, rmt, wire, deadline)
		if err != nil {
			return nil, err
		}
		if !lost && rseq == sh.seq {
			return pl, nil
		}
	}
}

// cycle runs one request deadline's worth of attempts, with backoff
// between them. A failed attempt drops the connection (a read that timed
// out may have stopped mid-frame), so the next one dials afresh and no
// reply to a failed attempt can answer a later one. Callers hold sh.mu.
func (c *Coordinator) cycle(sh *shard, frame []byte) ([]byte, error) {
	deadline := c.opts.Clock.Now().Add(c.opts.RequestTimeout)
	var out []byte
	err := sh.retrier.Do(deadline, func() error {
		attempt := time.Now().Add(c.opts.AttemptTimeout)
		if attempt.After(deadline) {
			attempt = deadline
		}
		pl, err := c.exchange(sh, frame, attempt)
		if err != nil {
			c.dropConnLocked(sh)
		}
		out = pl
		return err
	})
	return out, err
}

// rpc encodes one request — once; a frame the codec refuses is the
// caller's error and climbs no ladder — and runs it through the full
// robustness ladder:
//
//	retry+backoff within the request deadline
//	-> reconnect (live worker, fresh deadline)
//	-> respawn + replay the write-ahead log (dead or unresponsive worker)
//	-> degrade the shard: stop mirroring it (respawn budget exhausted)
//
// and returns ErrShardDegraded only from the last rung. The whole ladder
// runs under sh.mu: a shard has one requester (its sender) and one
// request in flight, so a failure is recovered exactly once.
func (c *Coordinator) rpc(sh *shard, mt byte, payload any) ([]byte, error) {
	frame, err := EncodeFrame(mt, 0, payload)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for cycle := 0; ; cycle++ {
		if c.closed.Load() {
			return nil, errClosed
		}
		if sh.degraded.Load() {
			return nil, ErrShardDegraded
		}
		out, err := c.cycle(sh, frame)
		if err == nil {
			return out, nil
		}
		if errors.Is(err, errClosed) {
			return nil, err
		}
		if cycle == 0 && c.alive(sh) {
			continue // reconnect rung: live worker, fresh deadline
		}
		if err := c.recoverLocked(sh); err != nil {
			return nil, err
		}
	}
}

// recoverLocked runs the respawn rung until a respawned worker holds the
// replayed log, the coordinator closes, or the respawn budget runs out and
// the shard degrades.
func (c *Coordinator) recoverLocked(sh *shard) error {
	for {
		if c.closed.Load() {
			return errClosed
		}
		if sh.respawns >= c.opts.MaxRespawns {
			c.degradeLocked(sh)
			return ErrShardDegraded
		}
		if c.respawnAndReplayLocked(sh) == nil {
			return nil
		}
	}
}

// replayAuditSize bounds the post-replay cross-check: up to this many
// restored items, spread evenly across the log, are fetched back in one
// MsgGetBatch and byte-compared against the write-ahead log.
const replayAuditSize = 16

// respawnAndReplayLocked relaunches the shard's worker and replays the
// write-ahead put log into its empty store — in MsgPutBatch chunks, not one
// frame per item, so recovery of a large shard costs O(log/batch) round
// trips. Replay is safe because items are write-once: the worker accepts
// byte-identical duplicates, so a put that was stored but whose ack was
// lost replays harmlessly. After replay, a sampled MsgGetBatch audit
// fetches restored items back and byte-compares them against the log; a
// mismatch fails this rung (the ladder respawns again or degrades). Replay
// is an ordinary conversation on the shard's connection — sh.mu is held, so
// nothing else can talk to the worker until the rung is done.
func (c *Coordinator) respawnAndReplayLocked(sh *shard) error {
	sh.respawns++
	c.counters.Respawns.Add(1)
	c.killWorker(sh)
	c.dropConnLocked(sh)
	if err := c.spawnWorker(sh); err != nil {
		return err
	}
	if err := c.connectLocked(sh, time.Now().Add(5*time.Second)); err != nil {
		return err
	}
	call := func(mt byte, payload any) ([]byte, error) {
		frame, err := EncodeFrame(mt, 0, payload)
		if err != nil {
			return nil, err
		}
		return c.cycle(sh, frame)
	}
	// Log entries are never rewritten, so the slice as of now is a
	// snapshot; puts staged meanwhile land past its end.
	sh.logMu.Lock()
	entries := sh.log
	sh.logMu.Unlock()
	for start := 0; start < len(entries); {
		end := start
		batchBytes := 0
		for end < len(entries) && end-start < c.opts.BatchOps && batchBytes < c.opts.BatchBytes {
			batchBytes += len(entries[end].Coll) + len(entries[end].Key) + len(entries[end].Val)
			end++
		}
		pl, err := call(MsgPutBatch, PutBatchMsg{Ops: entries[start:end]})
		if err != nil {
			return fmt.Errorf("dist: shard %d replay puts %d-%d/%d: %w", sh.idx, start+1, end, len(entries), err)
		}
		var ack AckMsg
		if err := DecodePayload(pl, &ack); err != nil {
			return err
		}
		if ack.Err != "" {
			return fmt.Errorf("dist: shard %d replay refused: %s", sh.idx, ack.Err)
		}
		c.counters.ReplayedPuts.Add(uint64(end - start))
		start = end
	}
	if len(entries) > 0 {
		stride := len(entries) / replayAuditSize
		if stride < 1 {
			stride = 1
		}
		var sampled []PutMsg
		for i := 0; i < len(entries) && len(sampled) < replayAuditSize; i += stride {
			sampled = append(sampled, entries[i])
		}
		pl, err := call(MsgGetBatch, getBatch(sampled))
		if err != nil {
			return fmt.Errorf("dist: shard %d replay audit: %w", sh.idx, err)
		}
		if err := compareMirror(sh.idx, sampled, pl); err != nil {
			return fmt.Errorf("dist: replay audit: %w", err)
		}
	}
	return nil
}

// degradeLocked retires the shard: it is no longer mirrored, which costs
// the run nothing because nothing reads the mirror. The worker (if any) is
// reaped so a degraded run can never leak a process, and the buffered puts
// and the write-ahead log are dropped — a degraded shard is never
// respawned, so nothing will replay them.
func (c *Coordinator) degradeLocked(sh *shard) {
	if sh.degraded.Swap(true) {
		return
	}
	c.counters.Degradations.Add(1)
	c.killWorker(sh)
	c.dropConnLocked(sh)
	sh.pbufMu.Lock()
	sh.pbuf, sh.pbufBytes = nil, 0
	sh.pbufCond.Broadcast()
	sh.pbufMu.Unlock()
	sh.logMu.Lock()
	sh.log = nil
	sh.logMu.Unlock()
}

// stallFactor is how far past its flush threshold (BatchOps, BatchBytes) a
// shard's put buffer may grow before a put waits for the sender to take it:
// the bound on memory when a worker acks slower than steps produce.
const stallFactor = 8

// kickSender asks the shard's sender for a flush that starts after now.
func (sh *shard) kickSender() {
	select {
	case sh.kick <- struct{}{}:
	default: // a kick is already pending, and the flush it starts is yet to come
	}
}

// enqueuePut appends one already-logged put to the shard's outgoing buffer
// and kicks the sender once a size threshold trips. The put itself waits
// for nothing — unless the buffer has run stallFactor thresholds ahead of
// the sender, where it blocks until the sender takes the buffer.
func (c *Coordinator) enqueuePut(sh *shard, m PutMsg) {
	sh.pbufMu.Lock()
	sh.pbuf = append(sh.pbuf, m)
	sh.pbufBytes += len(m.Coll) + len(m.Key) + len(m.Val)
	if len(sh.pbuf) >= c.opts.BatchOps || sh.pbufBytes >= c.opts.BatchBytes {
		sh.kickSender()
	}
	for (len(sh.pbuf) >= stallFactor*c.opts.BatchOps || sh.pbufBytes >= stallFactor*c.opts.BatchBytes) && !c.closed.Load() {
		sh.pbufCond.Wait()
	}
	sh.pbufMu.Unlock()
}

// sendLoop is the shard's sender, the only goroutine that flushes its put
// buffer: on a kick (a size threshold tripped, or a barrier wants the
// buffer on the worker) and every FlushEvery, so a trickle of puts that
// never trips a threshold still reaches the worker with bounded latency.
// Steps stage puts and move on; this goroutine is who waits for the acks.
// It is also the heartbeat: once the shard has exchanged nothing for
// HeartbeatEvery, it sends a PING, so a worker that died between flushes
// is recovered before the next flush needs it.
func (c *Coordinator) sendLoop(sh *shard) {
	defer c.bg.Done()
	var tick, idle <-chan time.Time
	if c.opts.FlushEvery > 0 {
		t := time.NewTicker(c.opts.FlushEvery)
		defer t.Stop()
		tick = t.C
	}
	var beat *time.Timer
	if c.opts.HeartbeatEvery > 0 {
		beat = time.NewTimer(c.opts.HeartbeatEvery)
		defer beat.Stop()
		idle = beat.C
	}
	var spare []PutMsg
	for {
		select {
		case <-c.stop:
			return
		case <-idle:
			c.heartbeat(sh)
			beat.Reset(c.opts.HeartbeatEvery)
			continue
		case <-sh.kick:
		case <-tick:
		}
		if spare = c.flushShard(sh, spare); len(spare) > 0 && beat != nil {
			beat.Reset(c.opts.HeartbeatEvery) // the batch was an exchange
		}
	}
}

// heartbeat probes an idle shard with a PING. rpc runs the whole recovery
// ladder, so a surviving error means the shard just degraded.
func (c *Coordinator) heartbeat(sh *shard) {
	if sh.degraded.Load() || c.closed.Load() {
		return
	}
	c.counters.Heartbeats.Add(1)
	if _, err := c.rpc(sh, MsgPing, nil); err != nil && !errors.Is(err, errClosed) {
		c.counters.HeartbeatFailures.Add(1)
	}
}

// flushShard sends the shard's buffered puts as one MsgPutBatch frame,
// waits for the ack and checks the sampled ops (verifyMirror); puts
// arriving meanwhile simply buffer for the next frame (into spare, the
// previous frame's emptied slice, which is how the two buffers take turns).
// A degraded shard absorbs the flush silently — nothing reads its mirror.
// Any other failure, a worker refusal or a failed check included, is
// terminal (latched via setTerm). Every call is one numbered flush, empty
// ones too: barriers wait on the numbers, so they cover the check.
func (c *Coordinator) flushShard(sh *shard, spare []PutMsg) []PutMsg {
	sh.pbufMu.Lock()
	ops := sh.pbuf
	sh.pbuf, sh.pbufBytes = spare[:0], 0
	sh.flushStarted++
	sh.pbufCond.Broadcast()
	sh.pbufMu.Unlock()
	if len(ops) > 0 && !sh.degraded.Load() {
		if err := c.sendBatch(sh, ops); err != nil && !errors.Is(err, ErrShardDegraded) {
			c.setTerm(err)
		}
	}
	sh.pbufMu.Lock()
	sh.flushDone++
	sh.pbufCond.Broadcast()
	sh.pbufMu.Unlock()
	return ops
}

func (c *Coordinator) sendBatch(sh *shard, ops []PutMsg) error {
	pl, err := c.rpc(sh, MsgPutBatch, PutBatchMsg{Ops: ops})
	if err != nil {
		return err
	}
	var ack AckMsg
	if err := DecodePayload(pl, &ack); err != nil {
		return err
	}
	if ack.Err != "" {
		return errors.New(ack.Err)
	}
	acked := c.counters.RemotePuts.Add(uint64(len(ops)))
	c.counters.PutFrames.Add(1)
	return c.verifyMirror(sh, ops, acked-uint64(len(ops))+1)
}

// verifyMirror fetches the sampled ops of an acked batch back from the
// shard in one MsgGetBatch and byte-compares them with the bytes sent.
// first is the number RemotePuts gave ops[0]; the sample is the ops
// numbered a multiple of VerifySample, so the rate is exact across
// batches and shards.
func (c *Coordinator) verifyMirror(sh *shard, ops []PutMsg, first uint64) error {
	vs := c.opts.VerifySample
	if vs < 0 {
		return nil
	}
	var sampled []PutMsg
	for i := (vs - int(first%uint64(vs))) % vs; i < len(ops); i += vs {
		sampled = append(sampled, ops[i])
	}
	if len(sampled) == 0 {
		return nil
	}
	pl, err := c.rpc(sh, MsgGetBatch, getBatch(sampled))
	if err != nil {
		return err
	}
	if err := compareMirror(sh.idx, sampled, pl); err != nil {
		return fmt.Errorf("dist: mirror check: %w", err)
	}
	c.counters.VerifiedReads.Add(uint64(len(sampled)))
	return nil
}

// getBatch asks for the items of puts back, in order.
func getBatch(puts []PutMsg) GetBatchMsg {
	gets := make([]GetMsg, len(puts))
	for i, p := range puts {
		gets[i] = GetMsg{Coll: p.Coll, Key: p.Key}
	}
	return GetBatchMsg{Gets: gets}
}

// compareMirror checks pl, the MsgItemBatch reply to getBatch(sent): one
// answer per put, each found, without an error, holding exactly the bytes
// sent. A failure names the shard and the collection of the first bad one.
func compareMirror(shard int, sent []PutMsg, pl []byte) error {
	bad := func(i int, format string, args ...any) error {
		return fmt.Errorf("shard %d, %s: %s", shard, sent[i].Coll, fmt.Sprintf(format, args...))
	}
	var reply ItemBatchMsg
	if err := DecodePayload(pl, &reply); err != nil {
		return bad(0, "%v", err)
	}
	if len(reply.Items) != len(sent) {
		return bad(0, "%d answers for %d gets", len(reply.Items), len(sent))
	}
	for i, it := range reply.Items {
		switch {
		case it.Err != "":
			return bad(i, "%s", it.Err)
		case !it.Found:
			return bad(i, "item missing")
		case !bytes.Equal(it.Val, sent[i].Val):
			return bad(i, "holds %d bytes, not the %d sent", len(it.Val), len(sent[i].Val))
		}
	}
	return nil
}

// awaitMirrors blocks until every put staged on the shard so far has been
// acked and checked: it kicks the sender when the buffer holds puts, and
// waits for the flush that takes them (or, with the buffer empty, for the
// one in flight). It is the end-of-run barrier. Returns the latched
// terminal error, if any.
func (c *Coordinator) awaitMirrors(sh *shard) error {
	sh.pbufMu.Lock()
	target := sh.flushStarted // the flush in flight, if one is
	if len(sh.pbuf) > 0 {
		target++ // the flush that will take the buffer
		sh.kickSender()
	}
	for sh.flushDone < target && !c.closed.Load() {
		sh.pbufCond.Wait()
	}
	sh.pbufMu.Unlock()
	if err := c.termError(); err != nil {
		return err
	}
	if c.closed.Load() {
		return errClosed
	}
	return nil
}

// Counters returns the coordinator's counter block (live; snapshot with
// Snapshot).
func (c *Coordinator) Counters() *Counters { return &c.counters }

// WorkerPIDs returns the PIDs of the currently live worker processes —
// the orphan-freedom tests capture them before Close and probe them after.
func (c *Coordinator) WorkerPIDs() []int {
	var pids []int
	for _, sh := range c.shards {
		sh.procMu.Lock()
		if sh.cmd != nil && sh.cmd.Process != nil {
			select {
			case <-sh.waitDone:
			default:
				pids = append(pids, sh.cmd.Process.Pid)
			}
		}
		sh.procMu.Unlock()
	}
	return pids
}

// Degraded reports how many shards have degraded (stopped being mirrored).
func (c *Coordinator) Degraded() int {
	n := 0
	for _, sh := range c.shards {
		if sh.degraded.Load() {
			n++
		}
	}
	return n
}

// Close reaps the whole fleet: close each worker's stdin lifeline (its
// graceful-exit signal), give it a moment, then kill. After Close returns
// every worker process has been waited on — zero orphans by construction.
//
// Close is safe against in-flight requests: c.closed flips first, the
// recovery ladder refuses to spawn once it is set, and the connection /
// process teardown happens under the same locks (sh.mu, sh.procMu) the
// transport and the respawn rung hold — a respawn that won the race
// finishes publishing its worker before Close's lock acquisition, and
// Close then reaps that worker like any other.
func (c *Coordinator) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.stop)
	for _, sh := range c.shards {
		sh.pbufMu.Lock()
		sh.pbufCond.Broadcast() // release puts and barriers waiting on a sender
		sh.pbufMu.Unlock()
	}
	c.bg.Wait()
	for _, sh := range c.shards {
		sh.mu.Lock()
		c.dropConnLocked(sh)
		sh.procMu.Lock()
		cmd, stdin, done := sh.cmd, sh.stdin, sh.waitDone
		sh.cmd, sh.stdin, sh.waitDone = nil, nil, nil
		sh.procMu.Unlock()
		sh.mu.Unlock()
		if stdin != nil {
			_ = stdin.Close() // EOF: the worker's exit signal
		}
		if cmd == nil || done == nil {
			continue
		}
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			if cmd.Process != nil {
				_ = cmd.Process.Kill()
			}
			<-done
		}
	}
	if c.ownsDir {
		_ = os.RemoveAll(c.dir)
	}
	return nil
}

// ---- fault-injection seam ----

// Shards is the number of shard workers.
func (c *Coordinator) Shards() int { return len(c.shards) }

// SetFrameHook installs fn on every frame crossing the boundary in either
// direction; nil uninstalls. size is the encoded frame length in bytes,
// msgType its wire name (e.g. "putbatch", "ack"). It may be called at any
// moment, mid-exchange included.
func (c *Coordinator) SetFrameHook(fn func(dir Dir, shard int, msgType string, size int) Verdict) {
	if fn == nil {
		c.hook.Store(nil)
		return
	}
	c.hook.Store(&frameHookHolder{fn: fn})
}

// KillWorker SIGKILLs the shard's current process, no cleanup — the
// supervisor must notice and recover.
func (c *Coordinator) KillWorker(shardIdx int) error {
	if shardIdx < 0 || shardIdx >= len(c.shards) {
		return fmt.Errorf("dist: no shard %d", shardIdx)
	}
	sh := c.shards[shardIdx]
	sh.procMu.Lock()
	defer sh.procMu.Unlock()
	if sh.cmd == nil || sh.cmd.Process == nil {
		return nil
	}
	if sh.waitDone != nil {
		select {
		case <-sh.waitDone:
			return nil // already dead
		default:
		}
	}
	return sh.cmd.Process.Kill()
}

// ---- cnc.ItemBackend (per graph, via Attach) ----

// Attach installs the coordinator as g's item backend. Each attached graph
// gets a unique collection-name prefix, so two graphs of one run (a tuner
// rebuild, say) can never collide in the shared item space — collection
// names are only unique within a graph.
func (c *Coordinator) Attach(g *cnc.Graph) {
	n := c.graphSeq.Add(1)
	g.WithItemBackend(&graphBackend{c: c, prefix: fmt.Sprintf("g%d/", n)})
}

type graphBackend struct {
	c      *Coordinator
	prefix string

	// names resolves each collection's prefixed, coordinator-wide name
	// once (fullName), instead of concatenating it on every operation.
	names sync.Map // collection -> prefix + collection
}

func (gb *graphBackend) fullName(coll string) string {
	if full, ok := gb.names.Load(coll); ok {
		return full.(string)
	}
	full, _ := gb.names.LoadOrStore(coll, gb.prefix+coll)
	return full.(string)
}

// Put implements cnc.ItemBackend: encode the put, append it to its shard's
// write-ahead log (synchronous — a respawned worker is replayed from the
// log, so the log must hold the put before a frame carrying it can be
// lost), then buffer the mirror for the shard's next MsgPutBatch frame and
// return. The shard's sender flushes the frame when a size threshold trips,
// on its FlushEvery tick and at the end-of-run barrier, then checks a
// sample of it — the put itself waits for no round trip; a failed flush or
// check latches and fails the next backend operation. An item too large
// for any frame is refused here, by name, before it is logged; a degraded
// shard takes nothing — nothing reads it, and nothing will replay it.
func (gb *graphBackend) Put(coll string, key, val any) error {
	if err := gb.c.termError(); err != nil {
		return err
	}
	full := gb.fullName(coll)
	kb, err := EncodeValue(key)
	if err != nil {
		return err
	}
	vb, err := EncodeValue(val)
	if err != nil {
		return err
	}
	// Header remainder, batch count, three length prefixes at their longest.
	if 9+1+3*binary.MaxVarintLen32+len(full)+len(kb)+len(vb) > maxFrame {
		return fmt.Errorf("dist: put %s: %d-byte value: %w", full, len(vb), ErrFrameTooLarge)
	}
	sh := gb.c.shards[ShardOf(full, kb, len(gb.c.shards))]
	if sh.degraded.Load() {
		return nil
	}
	m := PutMsg{Coll: full, Key: kb, Val: vb}
	sh.logMu.Lock()
	sh.log = append(sh.log, m)
	sh.logMu.Unlock()
	gb.c.enqueuePut(sh, m)
	return nil
}

// Flush implements cnc.ItemBackend: have every shard's sender drain its
// put buffer, wait for the acks and the mirror checks, and surface any
// latched terminal error — the end-of-run barrier that makes "run
// succeeded" mean "every mirror landed (or its shard degraded) and every
// sampled check passed".
func (gb *graphBackend) Flush() error {
	for _, sh := range gb.c.shards {
		if err := gb.c.awaitMirrors(sh); err != nil {
			return err
		}
	}
	return nil
}
