package server

import (
	"sync"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/engine"
	"armus/internal/obs"
)

// session is one tenant: a named verifier state shared by every
// connection that attached under its name. The read loop that decoded a
// batch applies it under mu (apply, apply.go). Its engine is the one the
// replay pipelines (internal/trace/replay) drive, so verdicts served over
// the wire are the verdicts an in-process replay of the same event stream
// computes; the loadgen parity check asserts that the session, wire and SDK
// keep it so.
type session struct {
	srv  *Server
	name string
	key  string // the store entry, sessionKey(name)
	mode core.Mode

	// mu is the one session lock: it guards the connection set, the
	// janitor bookkeeping and every field below marked "under mu". The
	// lock order is shard, then session. Nothing done under mu waits on a
	// peer, the store or the archive: send, persist and the tee never
	// block.
	mu    sync.Mutex
	conns map[*conn]struct{}
	// idleTicks counts janitor sweeps with no attached connection; the
	// lease is idleTicks * SweepPeriod. At the lease the janitor deletes the
	// store entry (persist.go) if the last connection ended cleanly
	// (cleanEnd) and the store may hold one (stored: found or handed over).
	idleTicks int
	cleanEnd  bool
	stored    bool

	// eng is the session's verdict engine (internal/engine) — the same type
	// the replay pipelines drive — and wasDeadlocked the last verdict a
	// detection session reported on. Under mu.
	eng           *engine.Engine
	wasDeadlocked bool
	// fold picks out each batch's net effect in a session that does not
	// gate; nil in avoidance, where every block is answered. Under mu.
	fold *netEffect

	// ob is the session's observability block: stage histograms, decision
	// counters and the flight ring — atomics throughout, written under mu
	// (plus by the connection writers for the flush stage), read by the
	// /debug handler and metrics scrapes.
	ob obs.SessionObs
	// batchQueueNs is the queue-wait of the batch currently being
	// processed, attributed to each of its gate records. Under mu.
	batchQueueNs int64
	// lastDumpNs rate-limits flight-recorder dumps; flightBuf is the dump's
	// reusable snapshot scratch. Under mu.
	lastDumpNs int64
	flightBuf  []obs.GateRecord

	// Snapshot persistence (persist.go): the batches processed since the
	// last snapshot, the state version that snapshot is of, and the
	// SnapshotInto buffer, under mu; and snapBack, on which the persister
	// hands the encoding back after its SET (nil without a store).
	batchesSinceSnap int
	snapVer          uint64
	snapBuf          []deps.Blocked
	snapBack         chan []byte
}

// newSession builds a session and seeds its engine from a store snapshot
// (snap is empty in the common fresh-session case). Seeding happens before
// the session is in the table, so rehydration needs no lock.
func newSession(s *Server, name string, mode core.Mode, snap []deps.Blocked) *session {
	ss := &session{
		srv:   s,
		name:  name,
		key:   sessionKey(name),
		mode:  mode,
		conns: make(map[*conn]struct{}),
		eng:   engine.New(mode == core.ModeAvoid),
	}
	if s.db != nil {
		ss.snapBack = make(chan []byte, 1)
	}
	if mode != core.ModeAvoid {
		ss.fold = &netEffect{order: make([]int32, 0, maxBatch)}
	}
	// Rehydrate: Definition 4.1 makes each blocked status a pure function
	// of its task, so re-applying the snapshot IS the session state the
	// previous owner had at persist time.
	ss.eng.Restore(snap...)
	// A deadlock that predates the failover was already reported by the
	// previous owner; start from "was deadlocked" so this server does not
	// push a duplicate report for the same cycle.
	ss.wasDeadlocked = len(snap) > 0 && ss.eng.Check() != nil
	return ss
}

// detach removes c from the session, noting whether its trace ended
// cleanly; the session itself survives until its lease expires (so the
// client can reconnect and resume).
func (ss *session) detach(c *conn, clean bool) {
	ss.mu.Lock()
	delete(ss.conns, c)
	ss.cleanEnd = clean
	ss.mu.Unlock()
}
