package server

import (
	"sync"
	"sync/atomic"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/dist"
	"armus/internal/engine"
	"armus/internal/obs"
)

// session is one tenant: a named verifier state shared by every
// connection that attached under its name, mutated exclusively by the
// session's executor goroutine (executor.go). Its engine is the one the
// replay pipelines (internal/trace/replay) drive, so verdicts served over
// the wire are the verdicts an in-process replay of the same event stream
// computes; the loadgen parity check asserts that executor, wire and SDK
// keep it so.
type session struct {
	srv  *Server
	name string
	mode core.Mode

	// mu owns the connection set and the janitor bookkeeping only. The
	// engine below is single-writer: the executor goroutine owns
	// it outright, so the ingest hot path takes no lock at all.
	mu    sync.Mutex
	conns map[*conn]struct{}
	// idleTicks counts janitor sweeps with no attached connection; the
	// lease is idleTicks * SweepPeriod.
	idleTicks int

	// in feeds the executor: read loops send decoded batches, the executor
	// receives and applies them. parked is set while the executor waits on
	// an empty queue (read by /debug only); stop/execDone bound the
	// lifecycle.
	in       chan *batch
	parked   atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once
	execDone chan struct{}

	// eng is the session's verdict engine (internal/engine) — the same type
	// the replay pipelines drive — and wasDeadlocked the last verdict a
	// detection session reported on. Executor-owned.
	eng           *engine.Engine
	wasDeadlocked bool

	// ob is the session's observability block: stage histograms, decision
	// counters and the flight ring — atomics throughout, written by the
	// executor (plus the connection writers for the flush stage), read by
	// the /debug handler and metrics scrapes.
	ob obs.SessionObs
	// batchQueueNs is the queue-wait of the batch currently being
	// processed, attributed to each of its gate records. Executor-owned.
	batchQueueNs int64
	// lastDumpNs rate-limits flight-recorder dumps; flightBuf is the dump's
	// reusable snapshot scratch. Executor-owned (dumps run on the executor).
	lastDumpNs int64
	flightBuf  []obs.GateRecord

	// Snapshot persistence (persist.go): the session's store chain and the
	// batches processed since its last link. Executor-owned.
	chain            *dist.Chain
	batchesSinceSnap int
}

// newSession builds a session, seeds its engine from a store snapshot
// (snap is empty in the common fresh-session case; snapSeq is the highest
// seq the store holds for it) and spawns its executor. Seeding happens
// strictly before the spawn: the engine is not yet shared, so rehydration
// needs no synchronization with the executor.
func newSession(s *Server, name string, mode core.Mode, snap []deps.Blocked, snapSeq uint64) *session {
	ss := &session{
		srv:      s,
		name:     name,
		mode:     mode,
		conns:    make(map[*conn]struct{}),
		in:       make(chan *batch, execQueueLen),
		stop:     make(chan struct{}),
		execDone: make(chan struct{}),
		eng:      engine.New(mode == core.ModeAvoid),
		chain:    dist.NewChain(0, snapshotFullEvery, snapSeq),
	}
	// Rehydrate: Definition 4.1 makes each blocked status a pure function
	// of its task, so re-applying the snapshot IS the session state the
	// previous owner had at persist time.
	ss.eng.Restore(snap...)
	// A deadlock that predates the failover was already reported by the
	// previous owner; start from "was deadlocked" so this server does not
	// push a duplicate report for the same cycle.
	ss.wasDeadlocked = len(snap) > 0 && ss.eng.Check() != nil
	s.m.ExecSpawned.Add(1)
	go ss.runExecutor()
	return ss
}

// detach removes c from the session; the session itself survives until
// its lease expires (so the client can reconnect and resume).
func (ss *session) detach(c *conn) {
	ss.mu.Lock()
	delete(ss.conns, c)
	ss.mu.Unlock()
}

// shutdownExecutor stops the executor (idempotent) and waits for it to
// drain everything already enqueued. Callers must guarantee no producer
// can push afterwards: the janitor calls it with zero attached
// connections while holding the shard lock (attach is excluded), and
// Server.Close calls it after every read loop has exited.
func (ss *session) shutdownExecutor() {
	ss.stopOnce.Do(func() { close(ss.stop) })
	<-ss.execDone
}
