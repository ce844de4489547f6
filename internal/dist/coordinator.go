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

	"dpflow/internal/chaos"
	"dpflow/internal/cnc"
)

// ErrShardDegraded reports that a shard exhausted its recovery ladder and
// the coordinator now serves its items locally from the write-ahead put
// log — the graceful-degradation terminal state, not a failure: a fully
// degraded run is exactly single-process execution.
var ErrShardDegraded = errors.New("dist: shard degraded to local serving")

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
	// HeartbeatEvery is the health-check period; 0 means 250ms, negative
	// disables heartbeats.
	HeartbeatEvery time.Duration
	// MaxRespawns is the per-shard respawn budget before the shard
	// degrades to local serving. Zero means the default (3); negative
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
	// then happen only on size, pre-get barriers, and the end-of-run
	// Flush).
	FlushEvery time.Duration
	// VerifySample controls verified-read sampling: gets are served from
	// the coordinator's write-ahead log (read-your-writes), and one in
	// VerifySample of them is also fetched from the shard owner and
	// byte-compared. Zero means the default (16); 1 verifies every read
	// (the chaos/CI configuration — every get proves the remote data
	// plane); negative disables verification entirely.
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
	// RemotePuts / RemoteGets are successfully completed remote item
	// operations (batched puts count one per op, not per frame).
	RemotePuts, RemoteGets atomic.Uint64
	// PutFrames counts the MsgPutBatch frames that carried those puts —
	// the denominator of the puts-per-frame batching ratio.
	PutFrames atomic.Uint64
	// LocalGets counts gets served from the write-ahead log without a
	// remote cross-check; VerifiedReads counts the sampled gets that were
	// also fetched from the shard owner and byte-compared (each such get
	// increments RemoteGets too).
	LocalGets, VerifiedReads atomic.Uint64
	// VerifyShed counts sampled cross-checks dropped because the
	// asynchronous verifier was saturated (see graphBackend.verifyAsync):
	// sampled gets = VerifiedReads + VerifyShed, modulo degraded shards.
	VerifyShed atomic.Uint64
	// Retries counts re-attempts inside request deadlines.
	Retries atomic.Uint64
	// Respawns counts worker processes relaunched by the supervisor,
	// ReplayedPuts the log entries re-delivered to them.
	Respawns, ReplayedPuts atomic.Uint64
	// Degradations counts shards that exhausted recovery and fell back to
	// local serving; DegradedGets the gets served from the local log.
	Degradations, DegradedGets atomic.Uint64
	// RaceRetries counts gets re-polled because they raced their
	// producer's in-flight mirror (see graphBackend.Get).
	RaceRetries atomic.Uint64
	// BytesOut / BytesIn are frame bytes across all sockets.
	BytesOut, BytesIn atomic.Uint64
	// Heartbeats / HeartbeatFailures count health probes sent and probes
	// that found a shard unhealthy.
	Heartbeats, HeartbeatFailures atomic.Uint64
}

// CounterSnapshot is a plain-value copy of Counters for reports.
type CounterSnapshot struct {
	RemotePuts, RemoteGets        uint64
	PutFrames                     uint64
	LocalGets, VerifiedReads      uint64
	VerifyShed                    uint64
	Retries                       uint64
	Respawns, ReplayedPuts        uint64
	Degradations, DegradedGets    uint64
	RaceRetries                   uint64
	BytesOut, BytesIn             uint64
	Heartbeats, HeartbeatFailures uint64
}

// Snapshot copies the counters.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		RemotePuts: c.RemotePuts.Load(), RemoteGets: c.RemoteGets.Load(),
		PutFrames: c.PutFrames.Load(),
		LocalGets: c.LocalGets.Load(), VerifiedReads: c.VerifiedReads.Load(),
		VerifyShed: c.VerifyShed.Load(),
		Retries:    c.Retries.Load(),
		Respawns:   c.Respawns.Load(), ReplayedPuts: c.ReplayedPuts.Load(),
		Degradations: c.Degradations.Load(), DegradedGets: c.DegradedGets.Load(),
		RaceRetries: c.RaceRetries.Load(),
		BytesOut:    c.BytesOut.Load(), BytesIn: c.BytesIn.Load(),
		Heartbeats: c.Heartbeats.Load(), HeartbeatFailures: c.HeartbeatFailures.Load(),
	}
}

// pendReply is what the shard's read loop hands an in-flight request.
type pendReply struct {
	payload []byte
	err     error
}

// pendEntry is one in-flight request awaiting its demuxed reply. gen pins
// it to the connection generation it was sent on, so a dying connection
// fails exactly the requests that were riding it.
type pendEntry struct {
	ch  chan pendReply
	gen uint64
}

// shard is the coordinator's view of one worker process.
type shard struct {
	idx    int
	socket string

	// mu guards the connection lifecycle (conn, gen) and serialises the
	// recovery ladder; requests no longer hold it across the wire — the
	// transport is pipelined, demuxed by header sequence number.
	mu       sync.Mutex
	conn     net.Conn
	gen      uint64
	respawns int
	retrier  *Retrier

	// seq issues globally unique request sequence numbers for this shard.
	seq atomic.Uint64

	// sendMu serialises frame writes on the current connection (reads are
	// owned by the single readLoop goroutine per connection).
	sendMu sync.Mutex

	// pendMu guards pending, the seq -> in-flight-request demux table.
	pendMu  sync.Mutex
	pending map[uint64]pendEntry

	// inflight gauges requests inside rpc — the heartbeat's "is traffic
	// already probing this shard" check.
	inflight atomic.Int64

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

	// logMu guards the write-ahead put log, indexed by collection, then by
	// encoded key.
	logMu  sync.Mutex
	log    []PutMsg
	logIdx map[string]map[string]int
}

type frameHookHolder struct {
	fn func(dir chaos.Dir, shard int, msgType string, size int) chaos.Verdict
}

// Coordinator owns the worker fleet and implements cnc.ItemBackend (via
// Attach) and chaos.TransportControl.
type Coordinator struct {
	opts     Options
	dir      string
	ownsDir  bool
	shards   []*shard
	counters Counters
	hook     atomic.Pointer[frameHookHolder]
	graphSeq atomic.Uint64
	closed   atomic.Bool

	// stop ends the background goroutines (one sender per shard, the
	// heartbeat); bg waits for them.
	stop chan struct{}
	bg   sync.WaitGroup

	// termErr latches the first terminal data-plane error (a refused put
	// in an asynchronous flush, a verified-read mismatch): every later
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
			idx:     i,
			socket:  filepath.Join(c.dir, fmt.Sprintf("shard-%d.sock", i)),
			logIdx:  make(map[string]map[string]int),
			pending: make(map[uint64]pendEntry),
			kick:    make(chan struct{}, 1),
		}
		sh.pbufCond = sync.NewCond(&sh.pbufMu)
		sh.retrier = NewRetrier(opts.Backoff, opts.Clock, rand.New(rand.NewSource(opts.Seed*31+int64(i))))
		sh.retrier.OnRetry = func() { c.counters.Retries.Add(1) }
		c.shards = append(c.shards, sh)
	}
	for _, sh := range c.shards {
		if err := c.spawnWorker(sh); err != nil {
			c.Close()
			return nil, err
		}
		conn, err := c.dial(sh, time.Now().Add(5*time.Second))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("dist: connect shard %d: %w", sh.idx, err)
		}
		c.publishConnLocked(sh, conn)
	}
	if opts.HeartbeatEvery > 0 {
		c.bg.Add(1)
		go c.heartbeatLoop()
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

// publishConnLocked installs conn as the shard's live connection and starts
// its read loop. Callers hold sh.mu (or, during NewCoordinator, have
// exclusive access).
func (c *Coordinator) publishConnLocked(sh *shard, conn net.Conn) {
	sh.gen++
	sh.conn = conn
	go c.readLoop(sh, conn, sh.gen)
}

func (c *Coordinator) dropConnLocked(sh *shard) {
	if sh.conn != nil {
		_ = sh.conn.Close() // readLoop notices and fails this gen's pending
		sh.conn = nil
	}
}

func (c *Coordinator) dropConn(sh *shard) {
	sh.mu.Lock()
	c.dropConnLocked(sh)
	sh.mu.Unlock()
}

// ensureConn returns the shard's live connection (dialling one if needed)
// and its generation. It refuses after Close: a redial there would talk to
// a worker the coordinator is about to reap — or respawn one it never will.
func (c *Coordinator) ensureConn(sh *shard, deadline time.Time) (net.Conn, uint64, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.closed.Load() {
		return nil, 0, errClosed
	}
	if sh.conn != nil {
		return sh.conn, sh.gen, nil
	}
	conn, err := c.dial(sh, deadline)
	if err != nil {
		return nil, 0, fmt.Errorf("dist: shard %d dial: %w", sh.idx, err)
	}
	c.publishConnLocked(sh, conn)
	return sh.conn, sh.gen, nil
}

// connLost tears down a dead connection: unpublish it (if still current)
// and fail every pending request that was riding it. Requests already sent
// on a newer connection keep waiting — their gen differs.
func (c *Coordinator) connLost(sh *shard, conn net.Conn, gen uint64, err error) {
	_ = conn.Close()
	sh.mu.Lock()
	if sh.conn == conn {
		sh.conn = nil
	}
	sh.mu.Unlock()
	sh.pendMu.Lock()
	for seq, e := range sh.pending {
		if e.gen == gen {
			delete(sh.pending, seq)
			e.ch <- pendReply{err: err}
		}
	}
	sh.pendMu.Unlock()
}

func (c *Coordinator) frameVerdict(dir chaos.Dir, shardIdx int, mt byte, size int) chaos.Verdict {
	h := c.hook.Load()
	if h == nil || h.fn == nil {
		return chaos.Verdict{}
	}
	return h.fn(dir, shardIdx, MsgName(mt), size)
}

// readLoop is the single reader of one connection: it demuxes replies to
// their in-flight requests by header sequence number, applying receive-side
// fault verdicts per frame. Replies whose request already gave up (stale
// seq) are discarded undecoded. On any read error the connection is dead
// and every request riding it fails immediately instead of waiting out its
// attempt timeout.
func (c *Coordinator) readLoop(sh *shard, conn net.Conn, gen uint64) {
	br := bufio.NewReaderSize(conn, readBuffer)
	for {
		mt, seq, pl, wire, err := ReadFrame(br)
		if err != nil {
			c.connLost(sh, conn, gen, fmt.Errorf("dist: shard %d read: %w", sh.idx, err))
			return
		}
		c.counters.BytesIn.Add(uint64(wire))
		v := c.frameVerdict(chaos.DirRecv, sh.idx, mt, wire)
		if v.Delay > 0 {
			time.Sleep(v.Delay)
		}
		if v.Reset {
			c.connLost(sh, conn, gen, fmt.Errorf("dist: shard %d: injected connection reset (recv %s)", sh.idx, MsgName(mt)))
			return
		}
		if v.Drop {
			continue // response lost in flight; its request times out
		}
		sh.pendMu.Lock()
		e, ok := sh.pending[seq]
		if ok {
			delete(sh.pending, seq)
		}
		sh.pendMu.Unlock()
		if ok {
			e.ch <- pendReply{payload: pl}
		}
	}
}

// readBuffer sizes the buffered readers on both ends of a shard socket:
// pipelined frames (put batches behind verified-read gets, their replies)
// share a read syscall.
const readBuffer = 64 << 10

// attempt performs one pipelined send+await attempt: stamp the request's
// frame with a fresh sequence number and register it, write the frame
// (send-side fault verdicts applied), and wait for the read loop to demux
// the reply — without excluding other requests to the same shard, which is
// what lets gets overlap puts and each other on one connection.
func (c *Coordinator) attempt(sh *shard, frame []byte, cycleDeadline time.Time) ([]byte, error) {
	attemptDeadline := time.Now().Add(c.opts.AttemptTimeout)
	if attemptDeadline.After(cycleDeadline) {
		attemptDeadline = cycleDeadline
	}
	conn, gen, err := c.ensureConn(sh, attemptDeadline)
	if err != nil {
		return nil, err
	}
	mt, seq := frame[headerLen], sh.seq.Add(1)
	binary.BigEndian.PutUint64(frame[headerLen+1:], seq)
	v := c.frameVerdict(chaos.DirSend, sh.idx, mt, len(frame))
	if v.Delay > 0 {
		time.Sleep(v.Delay)
	}
	if v.Reset {
		c.dropConn(sh)
		return nil, fmt.Errorf("dist: shard %d: injected connection reset (send %s)", sh.idx, MsgName(mt))
	}
	ch := make(chan pendReply, 1)
	sh.pendMu.Lock()
	sh.pending[seq] = pendEntry{ch: ch, gen: gen}
	sh.pendMu.Unlock()
	unregister := func() {
		sh.pendMu.Lock()
		delete(sh.pending, seq)
		sh.pendMu.Unlock()
	}
	if v.Drop {
		// Request lost in flight: skip the write and wait out the attempt,
		// exactly as a real loss would play out.
	} else {
		sh.sendMu.Lock()
		_ = conn.SetWriteDeadline(attemptDeadline)
		_, werr := conn.Write(frame)
		sh.sendMu.Unlock()
		if werr != nil {
			unregister()
			c.dropConn(sh)
			return nil, fmt.Errorf("dist: shard %d write %s: %w", sh.idx, MsgName(mt), werr)
		}
		c.counters.BytesOut.Add(uint64(len(frame)))
	}
	timer := time.NewTimer(time.Until(attemptDeadline))
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			return nil, r.err
		}
		return r.payload, nil
	case <-timer.C:
		unregister()
		return nil, fmt.Errorf("dist: shard %d %s: attempt timed out", sh.idx, MsgName(mt))
	}
}

// rpc encodes one request — once; a frame the codec refuses is the
// caller's error and climbs no ladder — and runs it through the full
// robustness ladder:
//
//	retry+backoff within the request deadline
//	-> reconnect (live worker, fresh deadline)
//	-> respawn + replay the write-ahead log (dead or unresponsive worker)
//	-> degrade the shard to local serving (respawn budget exhausted)
//
// and returns ErrShardDegraded only from the last rung. Requests are
// pipelined: any number may be in flight per shard, so only the recovery
// rungs serialise (under sh.mu, deduplicated by respawn count — concurrent
// failing requests trigger one respawn, not one each).
func (c *Coordinator) rpc(sh *shard, mt byte, payload any) ([]byte, error) {
	frame, err := EncodeFrame(mt, 0, payload)
	if err != nil {
		return nil, err
	}
	sh.inflight.Add(1)
	defer sh.inflight.Add(-1)
	for cycle := 0; ; cycle++ {
		if c.closed.Load() {
			return nil, errClosed
		}
		if sh.degraded.Load() {
			return nil, ErrShardDegraded
		}
		sh.mu.Lock()
		sawRespawns := sh.respawns
		sh.mu.Unlock()
		deadline := c.opts.Clock.Now().Add(c.opts.RequestTimeout)
		var out []byte
		err := sh.retrier.Do(deadline, func() error {
			pl, xerr := c.attempt(sh, frame, deadline)
			if xerr == nil {
				out = pl
			}
			return xerr
		})
		if err == nil {
			return out, nil
		}
		if errors.Is(err, errClosed) {
			return nil, err
		}
		c.dropConn(sh)
		if cycle == 0 && c.alive(sh) {
			continue // reconnect rung: live worker, fresh deadline
		}
		if rerr := c.recoverShard(sh, sawRespawns); rerr != nil {
			return nil, rerr
		}
	}
}

// recoverShard runs the respawn rung, serialised per shard. sawRespawns is
// the respawn count the failing request observed before its cycle: if it
// moved, another request already respawned the worker on our behalf, so
// retry instead of burning a second budget slot on one failure.
func (c *Coordinator) recoverShard(sh *shard, sawRespawns int) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.closed.Load() {
		return errClosed
	}
	if sh.degraded.Load() {
		return ErrShardDegraded
	}
	if sh.respawns != sawRespawns {
		return nil // a concurrent request already ran this rung
	}
	for {
		rerr := c.respawnAndReplayLocked(sh)
		if rerr == nil {
			return nil
		}
		if c.closed.Load() {
			return errClosed
		}
		if sh.respawns >= c.opts.MaxRespawns {
			c.degradeLocked(sh, rerr)
			return ErrShardDegraded
		}
	}
}

// syncExchange performs one synchronous request/response on a private,
// not-yet-published connection (the replay path: sh.mu is held, no read
// loop exists for conn yet). Fault verdicts apply — replay traffic is as
// chaos-targetable as live traffic.
func (c *Coordinator) syncExchange(sh *shard, conn net.Conn, mt byte, seq uint64, payload any, deadline time.Time) ([]byte, error) {
	frame, err := EncodeFrame(mt, seq, payload)
	if err != nil {
		return nil, err
	}
	v := c.frameVerdict(chaos.DirSend, sh.idx, mt, len(frame))
	if v.Delay > 0 {
		time.Sleep(v.Delay)
	}
	switch {
	case v.Reset:
		return nil, fmt.Errorf("dist: shard %d: injected connection reset (send %s)", sh.idx, MsgName(mt))
	case v.Drop:
		// Request lost in flight: the read below times out.
	default:
		_ = conn.SetWriteDeadline(deadline)
		if _, err := conn.Write(frame); err != nil {
			return nil, fmt.Errorf("dist: shard %d write %s: %w", sh.idx, MsgName(mt), err)
		}
		c.counters.BytesOut.Add(uint64(len(frame)))
	}
	for {
		_ = conn.SetReadDeadline(deadline)
		rmt, rseq, pl, wire, err := ReadFrame(conn)
		if err != nil {
			return nil, fmt.Errorf("dist: shard %d read: %w", sh.idx, err)
		}
		c.counters.BytesIn.Add(uint64(wire))
		rv := c.frameVerdict(chaos.DirRecv, sh.idx, rmt, wire)
		if rv.Delay > 0 {
			time.Sleep(rv.Delay)
		}
		if rv.Reset {
			return nil, fmt.Errorf("dist: shard %d: injected connection reset (recv %s)", sh.idx, MsgName(rmt))
		}
		if rv.Drop {
			continue // response lost in flight: keep waiting for one that isn't
		}
		if rseq != seq {
			continue // stale response to an earlier request on this conn
		}
		return pl, nil
	}
}

// replayExchange wraps syncExchange in the retry policy, redialling the
// (possibly *conn=nil) connection as needed. Used only under sh.mu by the
// respawn rung.
func (c *Coordinator) replayExchange(sh *shard, conn *net.Conn, mt byte, payload any) ([]byte, error) {
	seq := sh.seq.Add(1)
	deadline := c.opts.Clock.Now().Add(c.opts.RequestTimeout)
	var pl []byte
	err := sh.retrier.Do(deadline, func() error {
		if *conn == nil {
			nc, derr := c.dial(sh, time.Now().Add(c.opts.AttemptTimeout))
			if derr != nil {
				return fmt.Errorf("dist: shard %d dial: %w", sh.idx, derr)
			}
			*conn = nc
		}
		attemptDeadline := time.Now().Add(c.opts.AttemptTimeout)
		if attemptDeadline.After(deadline) {
			attemptDeadline = deadline
		}
		p, xerr := c.syncExchange(sh, *conn, mt, seq, payload, attemptDeadline)
		if xerr != nil {
			_ = (*conn).Close()
			*conn = nil
			return xerr
		}
		pl = p
		return nil
	})
	return pl, err
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
// mismatch fails this rung (the ladder respawns again or degrades — the
// log stays authoritative either way). The fresh connection is published
// (read loop started) only after replay and audit succeed.
func (c *Coordinator) respawnAndReplayLocked(sh *shard) error {
	if sh.respawns >= c.opts.MaxRespawns {
		return fmt.Errorf("dist: shard %d respawn budget (%d) exhausted", sh.idx, c.opts.MaxRespawns)
	}
	sh.respawns++
	c.counters.Respawns.Add(1)
	c.killWorker(sh)
	c.dropConnLocked(sh)
	if err := c.spawnWorker(sh); err != nil {
		return err
	}
	conn, err := c.dial(sh, time.Now().Add(5*time.Second))
	if err != nil {
		return fmt.Errorf("dist: shard %d reconnect after respawn: %w", sh.idx, err)
	}
	fail := func(err error) error {
		if conn != nil {
			_ = conn.Close()
		}
		return err
	}
	sh.logMu.Lock()
	entries := append([]PutMsg(nil), sh.log...)
	sh.logMu.Unlock()
	for start := 0; start < len(entries); {
		end := start
		batchBytes := 0
		for end < len(entries) && end-start < c.opts.BatchOps && batchBytes < c.opts.BatchBytes {
			batchBytes += len(entries[end].Coll) + len(entries[end].Key) + len(entries[end].Val)
			end++
		}
		pl, err := c.replayExchange(sh, &conn, MsgPutBatch, PutBatchMsg{Ops: entries[start:end]})
		if err != nil {
			return fail(fmt.Errorf("dist: shard %d replay puts %d-%d/%d: %w", sh.idx, start+1, end, len(entries), err))
		}
		var ack AckMsg
		if err := DecodePayload(pl, &ack); err != nil {
			return fail(err)
		}
		if ack.Err != "" {
			return fail(fmt.Errorf("dist: shard %d replay refused: %s", sh.idx, ack.Err))
		}
		c.counters.ReplayedPuts.Add(uint64(end - start))
		start = end
	}
	if len(entries) > 0 {
		stride := len(entries) / replayAuditSize
		if stride < 1 {
			stride = 1
		}
		var idxs []int
		for i := 0; i < len(entries) && len(idxs) < replayAuditSize; i += stride {
			idxs = append(idxs, i)
		}
		gets := make([]GetMsg, len(idxs))
		for j, i := range idxs {
			gets[j] = GetMsg{Coll: entries[i].Coll, Key: entries[i].Key}
		}
		pl, err := c.replayExchange(sh, &conn, MsgGetBatch, GetBatchMsg{Gets: gets})
		if err != nil {
			return fail(fmt.Errorf("dist: shard %d replay audit: %w", sh.idx, err))
		}
		var batch ItemBatchMsg
		if err := DecodePayload(pl, &batch); err != nil {
			return fail(err)
		}
		if len(batch.Items) != len(idxs) {
			return fail(fmt.Errorf("dist: shard %d replay audit: %d answers for %d gets", sh.idx, len(batch.Items), len(idxs)))
		}
		for j, i := range idxs {
			it := &batch.Items[j]
			if it.Err != "" {
				return fail(fmt.Errorf("dist: shard %d replay audit: %s", sh.idx, it.Err))
			}
			if !it.Found || !bytes.Equal(it.Val, entries[i].Val) {
				return fail(fmt.Errorf("dist: shard %d replay audit: restored %s differs from the put log", sh.idx, entries[i].Coll))
			}
		}
	}
	c.publishConnLocked(sh, conn)
	return nil
}

// degradeLocked retires the shard: its items are served from the
// coordinator's log from now on. The worker (if any) is reaped so a
// degraded run can never leak a process. Buffered puts are discarded — the
// write-ahead log already holds every one of them, and the log is now the
// serving store.
func (c *Coordinator) degradeLocked(sh *shard, cause error) {
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
	_ = cause // recorded implicitly: Degradations counts, callers see ErrShardDegraded
}

// logPut appends one put to the shard's write-ahead log (before any
// network I/O, so replay and degraded serving always see it). dup reports
// a byte-identical duplicate — already logged, and already on its way to
// (or at) the worker, so the caller must not enqueue it again.
func (c *Coordinator) logPut(sh *shard, m PutMsg) (dup bool, err error) {
	sh.logMu.Lock()
	defer sh.logMu.Unlock()
	idx := sh.logIdx[m.Coll]
	if idx == nil {
		idx = make(map[string]int)
		sh.logIdx[m.Coll] = idx
	}
	if i, prev := idx[string(m.Key)]; prev {
		if bytes.Equal(sh.log[i].Val, m.Val) {
			return true, nil
		}
		return false, fmt.Errorf("dist: write-once violation in put log: %s re-put with differing bytes", m.Coll)
	}
	idx[string(m.Key)] = len(sh.log)
	sh.log = append(sh.log, m)
	return false, nil
}

func (c *Coordinator) logLookup(sh *shard, coll string, key []byte) ([]byte, bool) {
	sh.logMu.Lock()
	defer sh.logMu.Unlock()
	i, ok := sh.logIdx[coll][string(key)]
	if !ok {
		return nil, false
	}
	return sh.log[i].Val, true
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
func (c *Coordinator) sendLoop(sh *shard) {
	defer c.bg.Done()
	var tick <-chan time.Time
	if c.opts.FlushEvery > 0 {
		t := time.NewTicker(c.opts.FlushEvery)
		defer t.Stop()
		tick = t.C
	}
	var spare []PutMsg
	for {
		select {
		case <-c.stop:
			return
		case <-sh.kick:
		case <-tick:
		}
		spare = c.flushShard(sh, spare)
	}
}

// flushShard sends the shard's buffered puts as one MsgPutBatch frame and
// waits for the ack; puts arriving meanwhile simply buffer for the next
// frame (into spare, the previous frame's emptied slice, which is how the
// two buffers take turns). A degraded shard absorbs the flush silently —
// the write-ahead log holds every buffered put and is now the serving
// store. Any other failure, a worker refusal included, is terminal (latched
// via setTerm). Every call is one numbered flush, empty ones too: barriers
// wait on the numbers.
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
	c.counters.RemotePuts.Add(uint64(len(ops)))
	c.counters.PutFrames.Add(1)
	return nil
}

// awaitMirrors blocks until the mirror of (coll, kb) — or, with a nil kb,
// of every put staged so far — has been acked by the worker. It is the
// end-of-run barrier and the pre-verified-read barrier, made precise: a
// read needs only its own mirror on the worker, so the sender is kicked
// only when that key still sits in the outgoing buffer; when a frame is in
// flight it may be carrying the key, and its ack is the wait. With neither,
// the key's mirror was already acked — or its producer has logged but not
// yet enqueued it, a window the caller's not-found re-poll absorbs. Not
// kicking there is what keeps sampled reads from fragmenting the put
// batches the rest of the run is amortising. Returns the latched terminal
// error, if any.
func (c *Coordinator) awaitMirrors(sh *shard, coll string, kb []byte) error {
	sh.pbufMu.Lock()
	target := sh.flushStarted // the flush in flight, if one is
	for i := range sh.pbuf {
		if kb == nil || (sh.pbuf[i].Coll == coll && bytes.Equal(sh.pbuf[i].Key, kb)) {
			target++ // the flush that will take the buffer
			sh.kickSender()
			break
		}
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

func (c *Coordinator) heartbeatLoop() {
	defer c.bg.Done()
	t := time.NewTicker(c.opts.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		for _, sh := range c.shards {
			if sh.degraded.Load() || c.closed.Load() {
				continue
			}
			if sh.inflight.Load() > 0 {
				continue // an in-flight request is a better health probe
			}
			c.counters.Heartbeats.Add(1)
			if _, err := c.rpc(sh, MsgPing, nil); err != nil && !errors.Is(err, errClosed) {
				// rpc already ran the whole recovery ladder; a surviving
				// error means the shard just degraded.
				c.counters.HeartbeatFailures.Add(1)
			}
		}
	}
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

// Degraded reports how many shards have degraded to local serving.
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

// ---- chaos.TransportControl ----

// Shards implements chaos.TransportControl.
func (c *Coordinator) Shards() int { return len(c.shards) }

// SetFrameHook implements chaos.TransportControl.
func (c *Coordinator) SetFrameHook(fn func(dir chaos.Dir, shard int, msgType string, size int) chaos.Verdict) {
	if fn == nil {
		c.hook.Store(nil)
		return
	}
	c.hook.Store(&frameHookHolder{fn: fn})
}

// KillWorker implements chaos.TransportControl: SIGKILL the shard's
// current process, no cleanup — the supervisor must notice and recover.
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

	// gets numbers this graph's backend gets for verified-read sampling
	// (every VerifySample'th get goes to the wire).
	gets atomic.Uint64

	// names resolves each collection's prefixed, coordinator-wide name
	// once (fullName), instead of concatenating it on every operation.
	names sync.Map // collection -> prefix + collection

	// objs caches each put's original value object by (collection, key) so
	// an unverified local get returns it with zero codec work — the
	// coordinator-side analogue of single-process object sharing, and the
	// difference between a get costing a map load and costing an encode of
	// the key plus a decode of the value. The write-ahead log's bytes stay
	// canonical: degraded serving, replay and every verified read still go
	// through them, so the cache can only ever short-circuit work, never
	// change what a get observes (items are write-once, the object never
	// mutates after Put).
	objs sync.Map // objKey -> any

	// verifyWG tracks in-flight asynchronous verified reads; the Flush
	// barrier waits on it so a mismatch discovered off the critical path
	// still fails the run it belongs to. verifyInflight bounds them —
	// a saturated verifier sheds the sample instead of stalling steps.
	verifyWG       sync.WaitGroup
	verifyInflight atomic.Int64
}

// maxAsyncVerify bounds concurrently outstanding asynchronous verified
// reads per graph.
const maxAsyncVerify = 32

// objKey addresses the object cache. Item keys are comparable by the same
// contract that lets cnc collections use them as map keys.
type objKey struct {
	coll string
	key  any
}

func (gb *graphBackend) fullName(coll string) string {
	if full, ok := gb.names.Load(coll); ok {
		return full.(string)
	}
	full, _ := gb.names.LoadOrStore(coll, gb.prefix+coll)
	return full.(string)
}

func (gb *graphBackend) locate(coll string, key any) (string, []byte, *shard, error) {
	full := gb.fullName(coll)
	kb, err := EncodeValue(key)
	if err != nil {
		return "", nil, nil, err
	}
	return full, kb, gb.c.shards[ShardOf(full, kb, len(gb.c.shards))], nil
}

// stagePut logs one put into the shard's write-ahead log and buffers its
// mirror for the shard's sender. An item too large for any frame is refused
// here, by name, before it is logged.
func (gb *graphBackend) stagePut(coll string, key, val any) error {
	full, kb, sh, err := gb.locate(coll, key)
	if err != nil {
		return err
	}
	vb, err := EncodeValue(val)
	if err != nil {
		return err
	}
	m := PutMsg{Coll: full, Key: kb, Val: vb}
	// Header remainder, batch count, three length prefixes at their longest.
	if 9+1+3*binary.MaxVarintLen32+len(full)+len(kb)+len(vb) > maxFrame {
		return fmt.Errorf("dist: put %s: %d-byte value: %w", full, len(vb), ErrFrameTooLarge)
	}
	dup, err := gb.c.logPut(sh, m)
	if err != nil {
		return err
	}
	// Logged (or a byte-identical replay): the object may serve local gets.
	gb.objs.Store(objKey{coll: coll, key: key}, val)
	if !dup && !sh.degraded.Load() {
		// Not already buffered/sent, and the log is not this shard's only store.
		gb.c.enqueuePut(sh, m)
	}
	return nil
}

// Put implements cnc.ItemBackend: write-ahead log (synchronous — the log
// is what gets serve and replay rebuilds from, so it must hold the item
// before any consumer can observe it), then buffer the mirror for the
// shard's next MsgPutBatch frame and return. The shard's sender flushes
// the frame when a size threshold trips, on its FlushEvery tick, before a
// verified read of a key still buffered, and at the end-of-run barrier —
// the put itself waits for no round trip; a failed flush latches and fails
// the next backend operation.
func (gb *graphBackend) Put(coll string, key, val any) error {
	if err := gb.c.termError(); err != nil {
		return err
	}
	return gb.stagePut(coll, key, val)
}

// PutBatch implements cnc.ItemBackend: stage every op; the senders batch
// them onto the wire.
func (gb *graphBackend) PutBatch(ops []cnc.PutOp) error {
	if err := gb.c.termError(); err != nil {
		return err
	}
	for i := range ops {
		if err := gb.stagePut(ops[i].Coll, ops[i].Key, ops[i].Val); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements cnc.BackendFlusher: have every shard's sender drain its
// put buffer and wait for the acks, wait out the in-flight asynchronous
// verified reads, and surface any latched terminal error — the end-of-run
// barrier that makes "run succeeded" mean "every mirror landed (or its
// shard degraded with the log serving) and every sampled cross-check
// passed".
func (gb *graphBackend) Flush() error {
	for _, sh := range gb.c.shards {
		if err := gb.c.awaitMirrors(sh, "", nil); err != nil {
			return err
		}
	}
	gb.verifyWG.Wait()
	return gb.c.termError()
}

// shouldVerify decides whether this get is a sampled verified read.
func (gb *graphBackend) shouldVerify() bool {
	vs := gb.c.opts.VerifySample
	if vs < 0 {
		return false
	}
	if vs <= 1 {
		return true
	}
	return gb.gets.Add(1)%uint64(vs) == 0
}

// Get implements cnc.ItemBackend. The write-ahead log is the
// read-your-writes cache: every put was logged synchronously before its
// producer could wake a consumer, so the authoritative bytes are always
// local and a get usually costs no round trip at all. A sampled fraction
// (Options.VerifySample) is additionally fetched from the shard owner and
// byte-compared — the statistical form of PR 8's fetch-every-read proof
// that the remote data plane actually holds what the coordinator thinks
// it holds. A mismatch is terminal.
//
// Sampled verification (VerifySample > 1) runs off the step's critical
// path: the get serves locally and the cross-check proceeds in a bounded
// background fetch whose failure latches terminally and whose completion
// the Flush barrier awaits — the run cannot succeed past an unfinished or
// failed check. Full verification (VerifySample 1, the chaos/CI setting)
// stays synchronous, so a failed comparison pins the exact get.
//
// A get can legitimately race its producer's in-flight mirror: the local
// store insert (which makes the item gettable) precedes the backend Put,
// so a speculatively re-executed consumer can reach here before the
// producer logged the item. A log miss within the request deadline is
// therefore re-polled, not failed; the same re-poll absorbs the window on
// the remote side of a verified read (the mirror is flushed before the
// fetch, but an earlier flush may still be in flight).
func (gb *graphBackend) Get(coll string, key any) (any, error) {
	if err := gb.c.termError(); err != nil {
		return nil, err
	}
	c := gb.c
	verify := gb.shouldVerify()
	syncVerify := verify && c.opts.VerifySample == 1
	if !syncVerify {
		// Fast path: the producer's own object, no key encode, no value
		// decode. A miss falls through to the log poll below (the consumer
		// is racing its producer's stagePut).
		if v, ok := gb.objs.Load(objKey{coll: coll, key: key}); ok {
			c.counters.LocalGets.Add(1)
			if verify {
				gb.verifyAsync(coll, key)
			}
			return v, nil
		}
	}
	full, kb, sh, err := gb.locate(coll, key)
	if err != nil {
		return nil, err
	}
	vb, ok := c.logLookup(sh, full, kb)
	for deadline := time.Now().Add(c.opts.RequestTimeout); !ok; vb, ok = c.logLookup(sh, full, kb) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: no put-log entry for %s (item never mirrored)", full)
		}
		c.counters.RaceRetries.Add(1) // racing the producer's logPut; it will land
		time.Sleep(200 * time.Microsecond)
	}
	switch {
	case sh.degraded.Load():
		c.counters.DegradedGets.Add(1)
	case !syncVerify:
		c.counters.LocalGets.Add(1)
		if verify {
			gb.verifyAsync(coll, key)
		}
	default:
		if err := c.crossCheck(sh, full, kb, vb); errors.Is(err, ErrShardDegraded) {
			c.counters.DegradedGets.Add(1)
		} else if err != nil {
			return nil, err
		}
	}
	return DecodeValue(vb)
}

// verifyAsync schedules one sampled cross-check off the critical path. A
// saturated verifier sheds the sample — sampling is statistical, stalling
// a step to preserve one data point would defeat its purpose — and counts
// it (Counters.VerifyShed), so the sampling rate actually achieved is
// visible.
func (gb *graphBackend) verifyAsync(coll string, key any) {
	if gb.verifyInflight.Add(1) > maxAsyncVerify {
		gb.verifyInflight.Add(-1)
		gb.c.counters.VerifyShed.Add(1)
		return
	}
	gb.verifyWG.Add(1)
	go func() {
		defer gb.verifyWG.Done()
		defer gb.verifyInflight.Add(-1)
		if err := gb.verifyOnce(coll, key); err != nil && !errors.Is(err, errClosed) {
			gb.c.setTerm(err)
		}
	}()
}

// verifyOnce is the background body of a sampled verified read. Degraded
// shards have nothing to verify against.
func (gb *graphBackend) verifyOnce(coll string, key any) error {
	full, kb, sh, err := gb.locate(coll, key)
	if err != nil {
		return err
	}
	vb, ok := gb.c.logLookup(sh, full, kb)
	if !ok {
		return nil // the serving get saw it; nothing coherent to compare yet
	}
	if err := gb.c.crossCheck(sh, full, kb, vb); !errors.Is(err, ErrShardDegraded) {
		return err
	}
	return nil
}

// crossCheck is one verified read: make sure the key's mirror has reached
// the shard (waiting only if it is still buffered or may be riding the
// in-flight frame), fetch it from the shard owner and byte-compare it
// against vb, the write-ahead log's bytes. A missing item is re-polled
// within the request deadline (an earlier mirror frame still in flight),
// after which it is the terminal protocol failure verification exists to
// catch, as is a mismatch. ErrShardDegraded means there is no longer a
// remote copy to compare with.
func (c *Coordinator) crossCheck(sh *shard, full string, kb, vb []byte) error {
	for deadline := time.Now().Add(c.opts.RequestTimeout); ; {
		if sh.degraded.Load() {
			return ErrShardDegraded
		}
		if err := c.awaitMirrors(sh, full, kb); err != nil {
			return err
		}
		pl, err := c.rpc(sh, MsgGet, GetMsg{Coll: full, Key: kb})
		if err != nil {
			return err
		}
		var item ItemMsg
		if err := DecodePayload(pl, &item); err != nil {
			return err
		}
		if item.Err != "" {
			return errors.New(item.Err)
		}
		if item.Found {
			if !bytes.Equal(item.Val, vb) {
				err := fmt.Errorf("dist: verified read mismatch: shard %d holds %d bytes for %s, put log has %d",
					sh.idx, len(item.Val), full, len(vb))
				c.setTerm(err)
				return err
			}
			c.counters.RemoteGets.Add(1)
			c.counters.VerifiedReads.Add(1)
			return nil
		}
		if time.Now().After(deadline) {
			// The mirror would long since have landed: the worker's store
			// is genuinely missing an item the coordinator holds — a
			// protocol bug, not a race.
			return fmt.Errorf("dist: shard %d lost %s despite replay", sh.idx, full)
		}
		c.counters.RaceRetries.Add(1)
		time.Sleep(200 * time.Microsecond)
	}
}
