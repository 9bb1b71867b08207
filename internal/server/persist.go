package server

import (
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/dist"
)

// Store-backed session persistence: the fleet-failover half of the server.
//
// Every session periodically snapshots its blocked-status state into the
// shared store (an armus:sess:<name> hash holding a full ARMUSD1 base plus
// a cumulative ARMUSI1 delta — the dist codec verbatim), and attach of a
// session absent from the table rehydrates from that hash. Definition 4.1
// is what makes this sound: a blocked task's status is a pure function of
// the task, so a session's verifier state IS its blocked-status set —
// re-applying the snapshot into a fresh engine reconstructs the exact
// verdict-relevant state, and the client SDK's reconnect resync
// (re-asserting every live status) closes whatever gap the snapshot
// cadence left.
//
// The hot path stays allocation-free: applying a batch only bumps a
// counter; every SnapshotEvery batches the applier encodes (into buffers
// that are reused or handed off whole) and hands the payload to ONE
// persister goroutine over a bounded channel. A full channel drops the
// snapshot (next one supersedes it; the drop is counted) rather than ever
// blocking a session lock holder on store I/O. The single persister preserves per-session
// base/delta write order, which is what keeps a concurrently rehydrating
// reader coherent: a delta whose baseSeq does not match the stored base is
// simply ignored.
//
// Lease-GC and shutdown never delete store keys: an expired session's
// snapshot is exactly what failover needs to still be there. The
// bounded-channel/single-writer discipline here is shared with the
// segment tee (tee.go, internal/segment) — both are best-effort side
// channels that may drop work (counted) but can never stall a verdict.
// DESIGN.md "Fleet & failover" is the end-to-end story.

// sessionKeyPrefix namespaces session snapshots in the shared store.
const sessionKeyPrefix = "armus:sess:"

// snapshotFullEvery is how many cumulative deltas ride one persisted base
// before the next snapshot is a full base again.
const snapshotFullEvery = 16

func sessionKey(name string) string { return sessionKeyPrefix + name }

// persistReq is one snapshot write: HSET key field val, plus the session
// mode tag alongside a full base, so rehydration can refuse a mode mismatch.
type persistReq struct {
	key   string
	field string
	val   []byte
	mode  byte
}

// persist hands a snapshot to the persister without ever blocking: its
// caller holds a session lock. Reports whether the request was accepted; a drop is counted.
func (s *Server) persist(req persistReq) bool {
	select {
	case s.persistCh <- req:
		return true
	default:
		s.m.SnapshotsDropped.Add(1)
		return false
	}
}

// persister is the single store writer: it drains the bounded channel and
// issues each snapshot as one pipelined round trip.
func (s *Server) persister() {
	defer close(s.persistDone)
	for req := range s.persistCh {
		p := s.db.Pipeline()
		if req.field == "base" {
			p.HSet(req.key, "mode", []byte{req.mode})
		}
		p.HSet(req.key, req.field, req.val)
		if _, err := p.Exec(); err != nil {
			s.m.SnapshotErrors.Add(1)
			s.cfg.Logf("armus-serve: persisting %s/%s: %v", req.key, req.field, err)
			continue
		}
		s.m.SnapshotsPersisted.Add(1)
	}
}

// maybeSnapshot runs under the session lock after each applied batch. With no
// store configured it is a single nil check — the zero-alloc guarantee of
// the ingest path (TestExecutorPathZeroAlloc) is unchanged.
func (ss *session) maybeSnapshot() {
	if ss.srv.db == nil {
		return
	}
	if ss.batchesSinceSnap++; ss.batchesSinceSnap < ss.srv.cfg.SnapshotEvery {
		return
	}
	ss.batchesSinceSnap = 0
	ss.persistSnapshot()
}

// persistSnapshot encodes the next link of the session's store chain
// (dist.Chain owns the base/delta bookkeeping) and hands it to the
// persister. Under the session lock; steady-state cost is the encode allocation
// alone, amortized over SnapshotEvery batches.
func (ss *session) persistSnapshot() {
	field, val := ss.chain.Next(ss.eng.State(), nil)
	if field == "" {
		return // nothing changed since the last persisted snapshot
	}
	if !ss.srv.persist(persistReq{key: sessionKey(ss.name), field: field, val: val, mode: byte(ss.mode)}) {
		ss.chain.Rebase() // dropped under backpressure
	}
}

// fetchSnapshot loads the stored blocked-status set of a session and the
// highest seq of its chain, which the new owner numbers above. The set is
// nil when the store has none (or holds one for a different mode — a stale
// tenant reusing the name across modes gets a fresh session, not a
// refusal). Called on the attach cold path, before the session is in the
// table.
func (s *Server) fetchSnapshot(name string, mode core.Mode) ([]deps.Blocked, uint64) {
	if s.db == nil {
		return nil, 0
	}
	h, err := s.db.HGetAll(sessionKey(name))
	if err != nil {
		s.m.SnapshotErrors.Add(1)
		s.cfg.Logf("armus-serve: session %q: snapshot fetch: %v", name, err)
		return nil, 0
	}
	base, ok := h["base"]
	if !ok {
		return nil, 0
	}
	snap, last, err := dist.DecodeChain(base, h["delta"])
	if err != nil {
		s.m.SnapshotErrors.Add(1)
		s.cfg.Logf("armus-serve: session %q: %v", name, err)
	}
	if mv, ok := h["mode"]; !ok || len(mv) != 1 || core.Mode(mv[0]) != mode {
		s.cfg.Logf("armus-serve: session %q: stored snapshot has different mode, starting fresh", name)
		return nil, last
	}
	return snap, last
}
