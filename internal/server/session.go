package server

import (
	"sync"
	"sync/atomic"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/obs"
)

// session is one tenant: a named verifier state shared by every
// connection that attached under its name, mutated exclusively by the
// session's executor goroutine (executor.go). The engine mirrors the
// replay pipelines (internal/trace/replay) on purpose — verdicts served
// over the wire are the verdicts an in-process replay of the same event
// stream computes, which is what the loadgen parity check asserts.
type session struct {
	srv  *Server
	name string
	mode core.Mode

	// mu owns the connection set and the janitor bookkeeping only. The
	// verifier engine below is single-writer: the executor goroutine owns
	// it outright, so the ingest hot path takes no lock at all.
	mu    sync.Mutex
	conns map[*conn]struct{}
	// idleTicks counts janitor sweeps with no attached connection; the
	// lease is idleTicks * SweepPeriod.
	idleTicks int

	// q feeds the executor: read loops push decoded batches, the executor
	// pops and applies them. execState/wake implement parking (see
	// enqueue and runExecutor); stop/execDone bound the lifecycle.
	q         mpsc
	execState atomic.Int32
	wake      chan struct{}
	stop      chan struct{}
	stopOnce  sync.Once
	execDone  chan struct{}

	// Avoidance engine: the incremental state plus the targeted
	// gate query's scratch, exactly the machinery of the in-process
	// avoidance gate. blocked tracks the currently blocked tasks for the
	// checkpoint verdict (any blocked task on a cycle). Executor-owned.
	st      *deps.State
	sc      deps.CycleScratch
	blocked map[deps.TaskID]struct{}

	// Detection engine: an observe-mode verifier; st aliases its state.
	// CheckNow is version-cached, so checking once per batch is cheap.
	// Executor-owned.
	ver           *core.Verifier
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

	// Snapshot-persistence bookkeeping (persist.go); executor-owned and
	// untouched without a configured store. curSnap/baseSnap alternate as
	// the SnapshotInto buffer: the retained base copy is what cumulative
	// deltas diff against.
	batchesSinceSnap  int
	persistsSinceBase int
	snapSeq           uint64
	baseSeq           uint64
	lastPersistVer    uint64
	curSnap           []deps.Blocked
	baseSnap          []deps.Blocked
	remBuf            []deps.TaskID
	upsBuf            []deps.Blocked
}

// newSession builds a session, seeds its engine from a store snapshot
// (snap may be nil — the common fresh-session case) and spawns its
// executor. Seeding happens strictly before the spawn: the engine is not
// yet shared, so rehydration needs no synchronization with the executor.
func newSession(s *Server, name string, mode core.Mode, snap []deps.Blocked) *session {
	ss := &session{
		srv:      s,
		name:     name,
		mode:     mode,
		conns:    make(map[*conn]struct{}),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		execDone: make(chan struct{}),
	}
	ss.q.init()
	if mode == core.ModeAvoid {
		ss.st = deps.NewState()
		ss.blocked = make(map[deps.TaskID]struct{})
	} else {
		ss.ver = core.New(core.WithMode(core.ModeObserve), core.WithModel(s.cfg.Model))
		ss.st = ss.ver.State()
	}
	// Rehydrate: Definition 4.1 makes each blocked status a pure function
	// of its task, so re-applying the snapshot IS the session state the
	// previous owner had at persist time. The statuses were admitted when
	// first gated, so they re-enter without re-gating.
	for i := range snap {
		ss.st.SetBlocked(snap[i])
		if ss.blocked != nil {
			ss.blocked[snap[i].Task] = struct{}{}
		}
	}
	if len(snap) > 0 && ss.ver != nil {
		// A deadlock that predates the failover was already reported by
		// the previous owner; start from "was deadlocked" so this server
		// does not push a duplicate report for the same cycle.
		ss.wasDeadlocked = ss.ver.CheckNow() != nil
	}
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

// closeEngine releases the session's verifier. Called by the janitor (GC)
// and by Server.Close, after the session has left the table and its
// executor has drained.
func (ss *session) closeEngine() {
	if ss.ver != nil {
		ss.ver.Close()
	}
}
