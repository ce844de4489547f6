package dist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
)

// EnvWorkerSocket is the environment variable whose presence turns a
// process into a shard worker: the coordinator spawns its own executable
// with it set (dpbench, dpperf and the dist tests call MaybeWorkerChild
// first thing for that reason).
const EnvWorkerSocket = "DPFLOW_DIST_WORKER_SOCKET"

// Store is one shard's item store: opaque bytes under the write-once rule.
// Workers never decode values, so they need no wire-type registrations and
// no benchmark knowledge at all.
type Store struct {
	mu    sync.Mutex
	items map[string][]byte
}

// NewStore builds an empty store.
func NewStore() *Store { return &Store{items: make(map[string][]byte)} }

// Put stores one item. A duplicate put with byte-identical value is
// accepted silently — that is what makes the coordinator's replay-after-
// respawn and ack-lost-so-retry paths safe. A duplicate with differing
// bytes is a write-once violation and is refused.
func (s *Store) Put(coll string, key, val []byte) error {
	k := storeKey(coll, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, dup := s.items[k]; dup {
		if bytes.Equal(old, val) {
			return nil // idempotent replay / retried put
		}
		return fmt.Errorf("dist: write-once violation: %s re-put with %d differing bytes", coll, len(val))
	}
	s.items[k] = val
	return nil
}

// Delete removes one item. Deleting an absent item is a no-op, so a
// retried or replayed frame re-applies its puts and frees in order.
func (s *Store) Delete(coll string, key []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.items, storeKey(coll, key))
}

// Get fetches one item.
func (s *Store) Get(coll string, key []byte) (val []byte, found bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	val, found = s.items[storeKey(coll, key)]
	return val, found
}

// Len is the item count (a PING's Stored probe).
func (s *Store) Len() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(len(s.items))
}

// ServeWorker runs one shard worker: listen on the Unix socket, serve
// coordinator connections one at a time (the coordinator holds exactly one
// connection per shard; a new accept means it reconnected, so the previous
// connection is dead). Returns only on listener failure — the normal exits
// are process-level: SIGKILL from a chaos fault, or the stdin-EOF watcher
// when the coordinator goes away.
func ServeWorker(socketPath string) error {
	// A previous incarnation of this shard (pre-respawn) leaves its socket
	// file behind; remove it or Listen fails with EADDRINUSE.
	_ = os.Remove(socketPath)
	ln, err := net.Listen("unix", socketPath)
	if err != nil {
		return fmt.Errorf("dist: worker listen %s: %w", socketPath, err)
	}
	defer ln.Close()
	store := NewStore()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("dist: worker accept: %w", err)
		}
		serveConn(conn, store)
	}
}

// serveConn answers frames until the connection dies, one at a time and in
// order: the coordinator holds one conversation per shard and writes its
// next request only after reading the reply to the last, which keeps the
// worker trivially race-free. Each reply carries its request's sequence
// number. Reads are buffered, so a frame's length prefix and its body
// share a syscall.
func serveConn(conn net.Conn, store *Store) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, readBuffer)
	for {
		mt, seq, payload, _, err := ReadFrame(br)
		if err != nil {
			return
		}
		var reply []byte
		switch mt {
		case MsgPutBatch:
			// One ack for the whole batch: empty when every op landed (or
			// was an idempotent byte-identical replay, or a free), else the
			// first failing op's error. Ops before a failure stay applied —
			// any error here is terminal for the coordinator anyway.
			var m PutBatchMsg
			var ack AckMsg
			if err := DecodePayload(payload, &m); err != nil {
				ack.Err = err.Error()
			} else {
				for i := range m.Ops {
					op := &m.Ops[i]
					if len(op.Val) == 0 {
						store.Delete(op.Coll, op.Key)
					} else if err := store.Put(op.Coll, op.Key, op.Val); err != nil {
						ack.Err = err.Error()
						break
					}
				}
			}
			reply, err = EncodeFrame(MsgAck, seq, ack)
		case MsgGetBatch:
			var m GetBatchMsg
			var batch ItemBatchMsg
			if derr := DecodePayload(payload, &m); derr != nil {
				// Answer every slot with the decode error so the reply
				// still pairs Items[i] with Gets[i] by position.
				batch.Items = []ItemMsg{{Err: derr.Error()}}
			} else {
				batch.Items = make([]ItemMsg, len(m.Gets))
				for i := range m.Gets {
					it := &batch.Items[i]
					it.Val, it.Found = store.Get(m.Gets[i].Coll, m.Gets[i].Key)
				}
			}
			reply, err = EncodeFrame(MsgItemBatch, seq, batch)
		case MsgPing:
			reply, err = EncodeFrame(MsgPong, seq, PongMsg{Stored: store.Len()})
		default:
			// A type no coordinator sends (MsgPut among them): the stream is
			// corrupt; drop the connection and let the coordinator's retry
			// ladder reconnect.
			return
		}
		if err != nil {
			return
		}
		if _, err := conn.Write(reply); err != nil {
			return
		}
	}
}

// MaybeWorkerChild turns the current process into a shard worker and never
// returns if EnvWorkerSocket is set; otherwise it is a no-op. Every binary
// the coordinator may self-exec (dpbench, the dist test binary) must call
// it before doing anything else.
//
// The worker exits when its stdin reaches EOF: the coordinator holds the
// write end of the pipe for the worker's whole life, so coordinator death —
// graceful or not — reaps every worker and no orphan can outlive a run.
func MaybeWorkerChild() {
	socket := os.Getenv(EnvWorkerSocket)
	if socket == "" {
		return
	}
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	if err := ServeWorker(socket); err != nil {
		fmt.Fprintf(os.Stderr, "dpflow worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}
