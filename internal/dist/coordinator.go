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
	// RequestTimeout is the per-request deadline and the transport's one
	// timing value: one full retry cycle (attempts + backoff) must land
	// inside it before the ladder escalates to reconnect/respawn. An
	// attempt gets RequestTimeout/8, so a dropped response costs one
	// attempt, not the whole deadline; the backoff between attempts grows
	// from RequestTimeout/400 to RequestTimeout/20, ×2 per attempt, with
	// jitter 0.5 (default 2s).
	RequestTimeout time.Duration
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
	// threshold. Below 1 means the default (64).
	BatchOps int
	// VerifySample controls mirror verification: after a put batch is
	// acked, its shard's sender fetches every VerifySample'th acked op
	// back in one MsgGetBatch and byte-compares it with the bytes it sent.
	// Zero means the default (16); 1 verifies every mirrored put (the
	// chaos/CI configuration); negative disables verification entirely.
	VerifySample int
}

// batchBytes is the put buffer's flush threshold in payload bytes, beside
// Options.BatchOps.
const batchBytes = 256 << 10

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
	if o.BatchOps <= 0 {
		o.BatchOps = 64
	}
	if o.VerifySample == 0 {
		o.VerifySample = 16
	}
	return o
}

// Counters is the coordinator's observable activity, all monotone but
// LogLive.
type Counters struct {
	// RemotePuts counts mirror puts the shards acked (batched puts count
	// one per op, not per frame); Frees the frees they acked; PutFrames the
	// MsgPutBatch frames that carried both — the denominator of the
	// puts-per-frame batching ratio.
	RemotePuts, Frees, PutFrames atomic.Uint64
	// LogLive is the put log's live entries across shards — what a respawn
	// would replay — and LogPeak its high-water mark.
	LogLive, LogPeak atomic.Int64
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
}

// CounterSnapshot is a plain-value copy of Counters for reports.
// LocalGets and RaceRetries are always 0: the coordinator serves no reads
// (cnc reads every item from its own cell), so none is local and none can
// race its mirror. They stay for the reports that print them.
type CounterSnapshot struct {
	RemotePuts, Frees, PutFrames uint64
	LogLive, LogPeak             int64
	VerifiedReads                uint64
	Retries                      uint64
	Respawns, ReplayedPuts       uint64
	Degradations                 uint64
	BytesOut, BytesIn            uint64
	LocalGets, RaceRetries       uint64
}

// Snapshot copies the counters.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		RemotePuts: c.RemotePuts.Load(), Frees: c.Frees.Load(), PutFrames: c.PutFrames.Load(),
		LogLive: c.LogLive.Load(), LogPeak: c.LogPeak.Load(),
		VerifiedReads: c.VerifiedReads.Load(),
		Retries:       c.Retries.Load(),
		Respawns:      c.Respawns.Load(), ReplayedPuts: c.ReplayedPuts.Load(),
		Degradations: c.Degradations.Load(),
		BytesOut:     c.BytesOut.Load(), BytesIn: c.BytesIn.Load(),
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

	// pbufMu guards the outgoing buffer, the put log and the flush
	// numbering. The shard's sender goroutine (sendLoop) owns every flush,
	// so at most one MsgPutBatch frame is in flight and batches leave in
	// enqueue order: flushStarted counts the flushes that have taken the
	// buffer, flushDone the ones whose ack (or terminal error) is in.
	// pbufCond signals both, plus the buffer emptying; kick (capacity 1: a
	// pending kick already promises a flush that starts later) wakes the
	// sender. pbuf is the next frame: puts, whose count and bytes trip the
	// flush and the stall, and frees (ops with no Val) of puts already
	// sent; held, the frees of puts still in pbuf, ride the frame after.
	// inflight is the frame taken, until it is acked and checked.
	pbufMu       sync.Mutex
	pbufCond     *sync.Cond
	pbuf, held   []PutMsg
	inflight     []PutMsg
	pbufPuts     int
	pbufBytes    int
	flushStarted uint64
	flushDone    uint64
	kick         chan struct{}

	// log is the put log, a slot table of the shard's live items: a put
	// takes a vacant slot (the handle names it), its free vacates it. It is
	// the replay source for a respawned worker. It needs no index: cnc
	// refuses a re-put before the backend sees it, and a free names its
	// slot. Guarded by pbufMu.
	log    []logEntry
	vacant []uint32

	// procMu guards the process handle (KillWorker and the supervisor
	// race by design).
	procMu   sync.Mutex
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	waitDone chan struct{}
}

// logEntry is one live put in a shard's log (a vacant slot has no Coll),
// and the number of the flush pending when it was buffered: while
// flushStarted still equals frame, the put has not left the buffer.
type logEntry struct {
	PutMsg
	frame uint64
}

// liveEntries snapshots the shard's live log entries: what a respawned
// worker must hold, and what the post-replay audit samples.
func (sh *shard) liveEntries() []PutMsg {
	sh.pbufMu.Lock()
	defer sh.pbufMu.Unlock()
	live := make([]PutMsg, 0, len(sh.log)-len(sh.vacant))
	for _, e := range sh.log {
		if e.Coll != "" {
			live = append(live, e.PutMsg)
		}
	}
	return live
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
	rt := opts.RequestTimeout
	backoff := Backoff{Base: rt / 400, Max: rt / 20, Factor: 2, Jitter: 0.5}
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
		sh.retrier = NewRetrier(backoff, RealClock, rand.New(rand.NewSource(31+int64(i))))
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

// spawnWorker launches (or relaunches) the shard's process — this
// executable, with EnvWorkerSocket set, which MaybeWorkerChild turns into a
// worker — and installs the stdin lifeline: the coordinator holds the
// pipe's write end for the worker's whole life, so coordinator death reaps
// every worker.
func (c *Coordinator) spawnWorker(sh *shard) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("dist: spawn shard %d: %w", sh.idx, err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), EnvWorkerSocket+"="+sh.socket)
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
	deadline := time.Now().Add(c.opts.RequestTimeout)
	var out []byte
	err := sh.retrier.Do(deadline, func() error {
		attempt := time.Now().Add(c.opts.RequestTimeout / 8)
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
// restored live items, spread evenly across the log, are fetched back in
// one MsgGetBatch and byte-compared against the log.
const replayAuditSize = 16

// respawnAndReplayLocked relaunches the shard's worker and replays the
// put log's live entries into its empty store, then the frame in flight
// (its puts may be freed already, but the sender is about to check them;
// their frees ride later frames) — in MsgPutBatch chunks, so recovery
// costs O(live/batch) round trips. Replay is safe because items are
// write-once and frees idempotent: the worker accepts byte-identical
// duplicates, and a free of an item never replayed deletes nothing. After
// replay, a sampled MsgGetBatch audit fetches restored live items back and
// byte-compares them against the log; a mismatch fails this rung (the
// ladder respawns again or degrades). Replay is an ordinary conversation
// on the shard's connection — sh.mu is held, so nothing else can talk to
// the worker until the rung is done.
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
	// Any snapshot will do: a put staged after it is still buffered, and so
	// is a free, which reaches the worker after the replay either way.
	live := sh.liveEntries()
	sh.pbufMu.Lock()
	entries := append(live[:len(live):len(live)], sh.inflight...)
	sh.pbufMu.Unlock()
	for start := 0; start < len(entries); {
		end := start
		size := 0
		for end < len(entries) && end-start < c.opts.BatchOps && size < batchBytes {
			size += len(entries[end].Coll) + len(entries[end].Key) + len(entries[end].Val)
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
	if len(live) > 0 {
		stride := max(len(live)/replayAuditSize, 1)
		var sampled []PutMsg
		for i := 0; i < len(live) && len(sampled) < replayAuditSize; i += stride {
			sampled = append(sampled, live[i])
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
// and the put log are dropped — a degraded shard is never respawned, so
// nothing will replay them, and its frees are ignored.
func (c *Coordinator) degradeLocked(sh *shard) {
	if sh.degraded.Swap(true) {
		return
	}
	c.counters.Degradations.Add(1)
	c.killWorker(sh)
	c.dropConnLocked(sh)
	sh.pbufMu.Lock()
	sh.pbuf, sh.held, sh.pbufPuts, sh.pbufBytes = nil, nil, 0, 0
	c.counters.LogLive.Add(int64(len(sh.vacant) - len(sh.log)))
	sh.log, sh.vacant = nil, nil
	sh.pbufCond.Broadcast()
	sh.pbufMu.Unlock()
}

// stallFactor is how far past its flush threshold (BatchOps, batchBytes) a
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

// sendLoop is the shard's sender, the only goroutine that flushes its put
// buffer, and only when kicked: a size threshold tripped, or a barrier
// wants the buffer on the worker. Steps stage puts and move on; this
// goroutine is who waits for the acks. A worker that dies between flushes
// is recovered by the ladder of the shard's next exchange — at the latest,
// the barrier's flush.
func (c *Coordinator) sendLoop(sh *shard) {
	defer c.bg.Done()
	var spare []PutMsg
	for {
		select {
		case <-c.stop:
			return
		case <-sh.kick:
			spare = c.flushShard(sh, spare)
		}
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
	ops, puts := sh.pbuf, sh.pbufPuts
	sh.pbuf = append(spare[:0], sh.held...) // the held frees' puts leave in ops
	sh.held, sh.pbufPuts, sh.pbufBytes, sh.inflight = sh.held[:0], 0, 0, ops
	sh.flushStarted++
	sh.pbufCond.Broadcast()
	sh.pbufMu.Unlock()
	if len(ops) > 0 && !sh.degraded.Load() {
		if err := c.sendBatch(sh, ops, uint64(puts)); err != nil && !errors.Is(err, ErrShardDegraded) {
			c.setTerm(err)
		}
	}
	sh.pbufMu.Lock()
	sh.inflight = nil
	sh.flushDone++
	sh.pbufCond.Broadcast()
	sh.pbufMu.Unlock()
	return ops
}

func (c *Coordinator) sendBatch(sh *shard, ops []PutMsg, puts uint64) error {
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
	acked := c.counters.RemotePuts.Add(puts)
	c.counters.Frees.Add(uint64(len(ops)) - puts)
	c.counters.PutFrames.Add(1)
	return c.verifyMirror(sh, ops, acked-puts+1)
}

// verifyMirror fetches the sampled puts of an acked batch back from the
// shard in one MsgGetBatch and byte-compares them with the bytes sent.
// first is the number RemotePuts gave the batch's first put; the sample is
// the puts numbered a multiple of VerifySample, so the rate is exact across
// batches and shards. No sampled put can be freed yet: its free rides a
// later frame, which the sender sends after this check.
func (c *Coordinator) verifyMirror(sh *shard, ops []PutMsg, first uint64) error {
	if c.opts.VerifySample < 0 {
		return nil
	}
	vs := uint64(c.opts.VerifySample)
	var sampled []PutMsg
	for i := range ops {
		if len(ops[i].Val) == 0 {
			continue
		}
		if first%vs == 0 {
			sampled = append(sampled, ops[i])
		}
		first++
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

// awaitMirrors blocks until every put and free staged on the shard so far
// has been acked and checked: it kicks the sender while the buffer holds
// ops — twice when held frees follow their puts — and waits until it is
// empty and no flush is in flight. It is the end-of-run barrier. Returns
// the latched terminal error, if any.
func (c *Coordinator) awaitMirrors(sh *shard) error {
	sh.pbufMu.Lock()
	for (len(sh.pbuf) > 0 || sh.flushDone < sh.flushStarted) && !c.closed.Load() {
		if len(sh.pbuf) > 0 {
			sh.kickSender()
		}
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

// stored asks the shard's worker for its item count (a PING's Stored).
func (c *Coordinator) stored(sh *shard) (uint64, error) {
	pl, err := c.rpc(sh, MsgPing, nil)
	var pong PongMsg
	if err == nil {
		err = DecodePayload(pl, &pong)
	}
	return pong.Stored, err
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

// Put implements cnc.ItemBackend: encode the put, enter it in a vacant
// slot of its shard's put log (the replay source, so it holds the put
// before a frame carrying it can be lost), buffer the mirror for the
// shard's next MsgPutBatch frame and return the slot's handle. The
// shard's sender flushes the frame when a size threshold trips and at the
// end-of-run barrier, then checks a sample of it — the put waits for no
// round trip, unless the buffer has run stallFactor thresholds ahead of
// the sender; a failed flush or check latches and fails the next backend
// operation. An item too large for any frame is refused here, by name,
// before it is logged; a degraded shard takes nothing — nothing reads it,
// and nothing will replay it.
func (gb *graphBackend) Put(coll string, key, val any) (uint32, error) {
	c := gb.c
	if err := c.termError(); err != nil {
		return 0, err
	}
	full := gb.fullName(coll)
	kb, err := EncodeValue(key)
	if err != nil {
		return 0, err
	}
	vb, err := EncodeValue(val)
	if err != nil {
		return 0, err
	}
	// Header remainder, batch count, three length prefixes at their longest.
	if 9+1+3*binary.MaxVarintLen32+len(full)+len(kb)+len(vb) > maxFrame {
		return 0, fmt.Errorf("dist: put %s: %d-byte value: %w", full, len(vb), ErrFrameTooLarge)
	}
	idx := ShardOf(full, kb, len(c.shards))
	sh := c.shards[idx]
	m := PutMsg{Coll: full, Key: kb, Val: vb}
	sh.pbufMu.Lock()
	defer sh.pbufMu.Unlock()
	if sh.degraded.Load() {
		return uint32(idx), nil // slot 0 of a degraded shard: Free ignores it
	}
	slot := len(sh.log)
	if n := len(sh.vacant); n > 0 {
		slot = int(sh.vacant[n-1])
		sh.vacant = sh.vacant[:n-1]
	} else {
		sh.log = append(sh.log, logEntry{})
	}
	sh.log[slot] = logEntry{m, sh.flushStarted}
	live := c.counters.LogLive.Add(1)
	for peak := c.counters.LogPeak.Load(); live > peak && !c.counters.LogPeak.CompareAndSwap(peak, live); peak = c.counters.LogPeak.Load() {
	}
	sh.pbuf = append(sh.pbuf, m)
	sh.pbufPuts++
	sh.pbufBytes += len(full) + len(kb) + len(vb)
	if sh.pbufPuts >= c.opts.BatchOps || sh.pbufBytes >= batchBytes {
		sh.kickSender()
	}
	for (sh.pbufPuts >= stallFactor*c.opts.BatchOps || sh.pbufBytes >= stallFactor*batchBytes) && !c.closed.Load() {
		sh.pbufCond.Wait()
	}
	return uint32(slot*len(c.shards) + idx), nil
}

// Free implements cnc.ItemBackend: vacate the handle's log slot for the
// next put and stage a free — the entry's own Coll and Key, no Val — for a
// frame strictly later than the one carrying its put, so the sender has
// checked the put before the worker deletes it: the next frame once the
// put has left the buffer, else the frame after. A free neither waits nor
// kicks the sender; it rides the frames that puts and the barrier send.
// A degraded shard ignores it.
func (gb *graphBackend) Free(h uint32) {
	c := gb.c
	sh := c.shards[int(h)%len(c.shards)]
	slot := int(h) / len(c.shards)
	sh.pbufMu.Lock()
	defer sh.pbufMu.Unlock()
	if sh.degraded.Load() {
		return
	}
	e := sh.log[slot]
	sh.log[slot] = logEntry{}
	sh.vacant = append(sh.vacant, uint32(slot))
	c.counters.LogLive.Add(-1)
	if f := (PutMsg{Coll: e.Coll, Key: e.Key}); e.frame == sh.flushStarted {
		sh.held = append(sh.held, f)
	} else {
		sh.pbuf = append(sh.pbuf, f)
	}
}

// Flush implements cnc.ItemBackend: have every shard's sender drain its
// buffer, wait for the acks and the mirror checks, and surface any latched
// terminal error — the end-of-run barrier that makes "run succeeded" mean
// "every mirror and free landed (or its shard degraded) and every sampled
// check passed".
func (gb *graphBackend) Flush() error {
	for _, sh := range gb.c.shards {
		if err := gb.c.awaitMirrors(sh); err != nil {
			return err
		}
	}
	return nil
}
