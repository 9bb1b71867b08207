package server

import (
	"errors"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/dist"
	"armus/internal/store"
)

// Store-backed session persistence: the fleet-failover half of the server.
//
// A session's store entry armus:sess:<name> is one value, its mode byte and
// a whole ARMUSD1 snapshot of its blocked statuses (dist.AppendSnapshot).
// Every write replaces it whole — by the time one is due most statuses have
// changed, so a delta would be no smaller — and no owner's write can pair
// with what an earlier owner left. By Definition 4.1 that set IS the
// verifier state: attach of a session absent from the table rehydrates from
// it, and the SDK's reconnect resync closes the gap the cadence left.
//
// Every SnapshotEvery batches, when the state version moved, the snapshot
// is handed to ONE persister goroutine over a bounded channel; a full
// channel drops it (counted; the next supersedes it), so a session lock
// holder never waits on the store.
//
// Lease GC deletes the entry of a session whose last connection ended with
// a clean trace end, on the same queue after its writes. A session that was
// cut off keeps it: a writer that is not back is still blocked, and the
// next owner's gate needs its statuses (the §5.2 dead-site rule, dist.go).
// Shutdown deletes nothing. DESIGN.md "Fleet & failover" has the story.

// sessionKeyPrefix namespaces session snapshots in the shared store.
const sessionKeyPrefix = "armus:sess:"

func sessionKey(name string) string { return sessionKeyPrefix + name }

// persistReq is one store write: SET key val, or DEL key when val is nil.
// After its SET the persister hands val back on back, if that has room.
type persistReq struct {
	key  string
	val  []byte
	back chan<- []byte
}

// persist hands a write to the persister without ever blocking: its caller
// holds a session or shard lock. Reports whether the request was accepted;
// a drop is counted.
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
// issues each write as one round trip.
func (s *Server) persister() {
	defer close(s.persistDone)
	for req := range s.persistCh {
		var err error
		if req.val == nil {
			_, err = s.db.Del(req.key)
		} else {
			err = s.db.Set(req.key, req.val)
			select {
			case req.back <- req.val:
			default:
			}
		}
		if err != nil {
			s.m.SnapshotErrors.Add(1)
			s.cfg.Logf("armus-serve: persisting %s: %v", req.key, err)
			continue
		}
		if req.val != nil {
			s.m.SnapshotsPersisted.Add(1)
		}
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

// persistSnapshot encodes the session's whole snapshot and hands it to the
// persister, unless the state has not changed since the last one. Under the
// session lock; it encodes into the buffer the persister handed back after
// the session's last SET, so while the persister keeps up it allocates
// nothing.
func (ss *session) persistSnapshot() {
	st := ss.eng.State()
	v := st.Version()
	if v == ss.snapVer {
		return
	}
	ss.snapVer = v
	ss.snapBuf = st.SnapshotInto(ss.snapBuf)
	var val []byte
	select {
	case val = <-ss.snapBack:
	default:
	}
	val = dist.AppendSnapshot(append(val[:0], byte(ss.mode)), 0, 0, ss.snapBuf)
	if ss.srv.persist(persistReq{key: ss.key, val: val, back: ss.snapBack}) {
		ss.stored = true
	} else {
		ss.snapVer = 0 // dropped: the next one goes even if nothing moves
	}
}

// fetchSnapshot loads a session's stored blocked-status set, and whether
// the store holds a value for it. The set is nil when there is none, when
// it does not decode (counted), or when it is of another mode: a stale
// tenant reusing the name across modes gets a fresh session, not a refusal.
// Called on the attach cold path, before the session is in the table.
func (s *Server) fetchSnapshot(name string, mode core.Mode) ([]deps.Blocked, bool) {
	if s.db == nil {
		return nil, false
	}
	val, err := s.db.Get(sessionKey(name))
	if errors.Is(err, store.ErrNil) {
		return nil, false // never persisted, or deleted after a clean end
	}
	if err == nil && len(val) == 0 {
		err = errors.New("empty value")
	}
	var snap []deps.Blocked
	if err == nil {
		_, _, snap, err = dist.DecodeSnapshot(val[1:])
	}
	if err != nil {
		s.m.SnapshotErrors.Add(1)
		s.cfg.Logf("armus-serve: session %q: snapshot fetch: %v", name, err)
		return nil, val != nil
	}
	if core.Mode(val[0]) != mode {
		s.cfg.Logf("armus-serve: session %q: stored snapshot has different mode, starting fresh", name)
		return nil, true
	}
	return snap, true
}
