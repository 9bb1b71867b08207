// Package server implements verification-as-a-service: a multi-tenant TCP
// ingestion server that verifies barrier deadlocks for processes it does
// not run inside.
//
// The paper's load-bearing property (Definition 4.1) is that a blocked
// task's status is a pure function of the task itself — the events it
// waits for plus its registration vector. Checking is therefore a MERGE,
// not a protocol: any process can stream its blocked statuses to a remote
// verifier and the verdicts are exactly the ones an in-process verifier
// would have produced. This package is that remote verifier.
//
// Shape:
//
//   - Clients connect over TCP and speak the internal/trace stream format
//     (see internal/server/proto): the trace header is the handshake, the
//     framed events are the payload, and a cleanly closed connection is a
//     complete, CRC-checked, replayable trace.
//   - Each connection attaches to a SESSION named in the handshake.
//     Sessions are the tenancy unit: all connections naming one session
//     feed one verifier state, which is what makes deadlocks spanning
//     several client processes visible. The session table is sharded 16
//     ways by session-name hash.
//   - A session runs in avoidance mode (every block is gated through the
//     targeted deps.State.CycleThrough query and refused — with its cycle
//     — when it would close one; the gate hot path is allocation-free
//     once warm) or detection mode (mutations apply unconditionally, the
//     session engine answers "deadlocked now?" per batch with the same
//     query, from the tasks whose status the batch set, and deadlock
//     transitions are pushed to subscribed connections).
//   - A session is a lock, not a goroutine: the read loop that decoded a
//     batch (trace.Reader.NextInto into the connection's one batch, where
//     a structural frame leaves its slot free) applies it itself under the
//     session's mutex (apply.go), whose holder alone writes the verifier
//     state. Ingress backpressure is the TCP window: a read loop waiting
//     for a busy session does not read its socket: the kernel stops the sender.
//     Egress is a per-connection coalesce buffer flushed by a writer
//     goroutine in single Write calls (many responses per syscall),
//     bounded by response count: a connection that does not drain its
//     read side is disconnected (slow-consumer policy) rather than
//     buffered without bound.
//   - Sessions whose last connection has gone survive for a lease (so a
//     crashed client can reconnect and resume), then a janitor driven by
//     the injectable internal/clock garbage-collects them. Shutdown
//     drains on the same clock: stop accepting, say goodbye, give
//     connections a grace to finish, then close.
//   - With Config.SegmentDir set, every read loop additionally tees the
//     frames it accepted, as they arrived, into the durable trace archive
//     (internal/segment, tee.go) and sessions append the server's verdict
//     transitions — making every session's ingest stream queryable and
//     replayable after the fact. The tee never blocks verification; see
//     docs/SEGMENT_FORMAT.md and docs/OPERATIONS.md.
//   - With Config.StoreAddr set, sessions periodically snapshot their
//     blocked-status state into the shared store (persist.go) and
//     fleet members rehydrate a dead member's sessions from it — the
//     failover path described under "Fleet & failover" in DESIGN.md.
package server

import (
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"armus/internal/clock"
	"armus/internal/core"
	"armus/internal/fleet"
	"armus/internal/segment"
	"armus/internal/server/proto"
	"armus/internal/store"
)

// Config shapes a Server. The zero value of every field selects a sane
// default.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:7777" or ":0".
	Addr string
	// Lease is how long a session with no attached connections survives
	// before the janitor collects it (default 30s).
	Lease time.Duration
	// SweepPeriod is the janitor tick (default 1s). The lease is measured
	// in whole ticks, so with an injected clock.Fake the GC is stepped
	// deterministically.
	SweepPeriod time.Duration
	// DrainGrace is how long Shutdown waits for live connections to
	// finish before force-closing them (default 5s, in SweepPeriod ticks
	// of the injected clock).
	DrainGrace time.Duration
	// StoreAddr connects the server to an armus-store instance
	// ("host:port" or "unix:/path") for session-snapshot persistence:
	// every session periodically persists its blocked-status state there,
	// and attaching a session absent from the table rehydrates it from the
	// stored snapshot — the fleet failover path (see persist.go). Empty
	// disables persistence.
	StoreAddr string
	// SnapshotEvery persists a session snapshot every N applied batches
	// (default 64). Lower is fresher at more store traffic; the
	// client SDK's reconnect resync covers whatever the cadence misses.
	SnapshotEvery int
	// Fleet and SelfAddr declare the static shard map this server serves
	// in (the same -fleet list clients route with) and which entry is this
	// server. Observational only: a session owned by another fleet member
	// is still served, but counted as foreign — a nonzero foreign counter
	// means some client routes with a DIFFERENT map, the misconfiguration
	// that silently splits a fleet.
	Fleet    []string
	SelfAddr string
	// SegmentDir enables the durable trace archive (internal/segment):
	// every accepted connection's decoded event batches — plus the
	// server's own verdict transitions (gate rejections, deadlock
	// reports) — are teed off the verification hot path into per-session
	// rotating, compressed, CRC-sealed segment files under this
	// directory, queryable with `armus-trace query` and exportable back
	// into replayable traces with `armus-trace export`. The tee follows
	// the persister discipline: bounded channel, single writer goroutine,
	// drops counted, never blocks ingestion. Empty disables archiving.
	SegmentDir string
	// SegmentMaxAge rotates (seals) a session's current segment once it
	// reaches this age (default 5m; the size bound is segment's 4 MiB).
	SegmentMaxAge time.Duration
	// SegmentRetainBytes / SegmentRetainAge bound the archive: the
	// retention sweep deletes sealed segments oldest-first while the
	// directory exceeds the byte budget, and deletes any sealed segment
	// older than the age. Zero disables that policy (keep everything).
	SegmentRetainBytes int64
	SegmentRetainAge   time.Duration
	// SlowGate dumps a session's flight recorder (a structured JSON log
	// line with the last obs.FlightRecords decisions) whenever a gate's
	// server-side time — queue wait plus its own verifier work — reaches
	// this threshold. Zero disables the threshold; rejected gates always
	// dump. Dumps are rate-limited per session.
	SlowGate time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof on the Handler. Off
	// by default: the profile endpoints can stall the process and belong
	// on an operator-only listener (see docs/OPERATIONS.md).
	Pprof bool
	// Clock drives the janitor and the shutdown drain (default the real
	// clock; tests inject clock.NewFake and step it).
	Clock clock.Clock
	// Logf receives operational log lines (default log.Printf; tests
	// silence it).
	Logf func(format string, args ...any)
	// DumpLogf receives flight-recorder dumps (default Logf). armus-serve
	// points it at log.Printf even under -quiet: dumps are exceptional,
	// rate-limited diagnostics, not per-session chatter.
	DumpLogf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Lease <= 0 {
		c.Lease = 30 * time.Second
	}
	if c.SweepPeriod <= 0 {
		c.SweepPeriod = time.Second
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 64
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.DumpLogf == nil {
		c.DumpLogf = c.Logf
	}
	return c
}

// sessionShards is the session-table shard count (power of two).
const sessionShards = 16

type sessionShard struct {
	mu sync.Mutex
	m  map[string]*session
}

// Server is one armus-serve instance.
type Server struct {
	cfg    Config
	ln     net.Listener
	seed   maphash.Seed
	shards [sessionShards]sessionShard

	// Session-snapshot persistence (nil/zero without cfg.StoreAddr).
	db          *store.Client
	persistCh   chan persistReq
	persistDone chan struct{}
	// shardMap is the fleet shard map (nil without cfg.Fleet).
	shardMap *fleet.Map
	// seg is the durable trace archive (nil without cfg.SegmentDir).
	seg *segment.Store

	m Metrics

	mu       sync.Mutex
	conns    map[*conn]struct{}
	draining bool
	closed   bool

	wg        sync.WaitGroup // accept loop + connection handlers
	sweepStop chan struct{}
	sweepDone chan struct{}
}

// New starts a server listening on cfg.Addr. Call Shutdown (graceful) or
// Close (immediate) when done.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var shardMap *fleet.Map
	if len(cfg.Fleet) > 0 {
		var err error
		if shardMap, err = fleet.New(cfg.Fleet); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		ln:        ln,
		seed:      maphash.MakeSeed(),
		shardMap:  shardMap,
		conns:     make(map[*conn]struct{}),
		sweepStop: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	s.initMetrics()
	for i := range s.shards {
		s.shards[i].m = make(map[string]*session)
	}
	if cfg.SegmentDir != "" {
		seg, err := segment.NewStore(segment.Config{
			Dir:         cfg.SegmentDir,
			MaxAge:      cfg.SegmentMaxAge,
			RetainBytes: cfg.SegmentRetainBytes,
			RetainAge:   cfg.SegmentRetainAge,
			Clock:       cfg.Clock,
			Logf:        cfg.Logf,
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
		s.seg = seg
		s.m.Segment = seg.Metrics()
	}
	if cfg.StoreAddr != "" {
		s.db = store.Dial(cfg.StoreAddr)
		if err := s.db.Ping(); err != nil {
			ln.Close()
			s.db.Close()
			if s.seg != nil {
				s.seg.Close()
			}
			return nil, fmt.Errorf("server: store %s: %w", cfg.StoreAddr, err)
		}
		s.persistCh = make(chan persistReq, 256)
		s.persistDone = make(chan struct{})
		go s.persister()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	go s.sweeper()
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(nc)
	}
}

// shardFor picks the session shard of a session name.
func (s *Server) shardFor(name string) *sessionShard {
	return &s.shards[maphash.String(s.seed, name)&(sessionShards-1)]
}

// attach finds or creates the named session and attaches c to it. The
// second result reports whether the connection RESUMES state rather than
// starting fresh: the session was in the table, or it was rehydrated from
// its store snapshot (the fleet failover path — this server may never
// have seen the session before).
func (s *Server) attach(name string, mode core.Mode, c *conn) (*session, bool, error) {
	sh := s.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ss, existed := sh.m[name]
	resumed := existed
	if !existed {
		if s.shardMap != nil && s.cfg.SelfAddr != "" {
			if owner := s.shardMap.Owner(name); owner != s.cfg.SelfAddr {
				s.m.SessionsForeign.Add(1)
				s.cfg.Logf("armus-serve: session %q is owned by fleet member %s (serving anyway)", name, owner)
			}
		}
		// One store round trip on the cold path, before the session is in
		// the table: the fresh engine is rehydrated before anything can
		// race it, and the shard lock keeps a concurrent attach of the same
		// session out.
		snap, stored := s.fetchSnapshot(name, mode)
		ss = newSession(s, name, mode, snap)
		ss.stored = stored
		sh.m[name] = ss
		s.m.SessionsTotal.Add(1)
		s.m.SessionsOpen.Add(1)
		if len(snap) > 0 {
			resumed = true
			s.m.SessionsRehydrated.Add(1)
			s.cfg.Logf("armus-serve: session %q rehydrated from store (%d blocked statuses, %v)",
				name, len(snap), mode)
		} else {
			s.cfg.Logf("armus-serve: session %q opened (%v)", name, mode)
		}
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.mode != mode {
		return nil, false, fmt.Errorf("session %q runs in %v mode, connection asked for %v",
			name, ss.mode, mode)
	}
	ss.conns[c] = struct{}{}
	ss.idleTicks = 0
	c.wmu.Lock()
	c.sess = ss
	c.wmu.Unlock()
	return ss, resumed, nil
}

// sweeper is the clock-driven janitor: it expires idle sessions after the
// lease.
func (s *Server) sweeper() {
	defer close(s.sweepDone)
	tk := s.cfg.Clock.NewTicker(s.cfg.SweepPeriod)
	defer tk.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-tk.C():
			s.sweep()
		}
	}
}

// sweep runs one janitor pass. A session is collected once it has spent
// Lease worth of whole SweepPeriod ticks with no attached connection.
func (s *Server) sweep() {
	leaseTicks := int(s.cfg.Lease / s.cfg.SweepPeriod)
	if leaseTicks < 1 {
		leaseTicks = 1
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for name, ss := range sh.m {
			ss.mu.Lock()
			if len(ss.conns) > 0 {
				ss.idleTicks = 0
				ss.mu.Unlock()
				continue
			}
			ss.idleTicks++
			expired := ss.idleTicks >= leaseTicks
			del := ss.cleanEnd && ss.stored
			ss.mu.Unlock()
			if expired {
				// No connection is attached, so no read loop is applying
				// a batch, and attach is excluded by the shard lock.
				//
				// A session whose last connection was cut off keeps its
				// store snapshot, so a client reconnecting after the lease
				// (or attaching on another fleet member) still rehydrates
				// and resumes (TestGCLeavesSnapshotIntact). One that ended
				// cleanly has its entry deleted, queued after its writes
				// (TestCleanEndDeletesSnapshotAtGC); while the queue is
				// full the session stays, and the next sweep retries.
				if del && !s.persist(persistReq{key: ss.key}) {
					continue
				}
				delete(sh.m, name)
				s.m.SessionsOpen.Add(-1)
				s.m.SessionsGCed.Add(1)
				// Seal the session's archive segment now that its state is
				// gone: a reclaimed session's history becomes queryable
				// immediately. Best effort — the archive's own idle sweep
				// covers a dropped request.
				if s.seg != nil {
					s.seg.SealSession(name)
				}
				s.cfg.Logf("armus-serve: session %q expired (lease %v)", name, s.cfg.Lease)
			}
		}
		sh.mu.Unlock()
	}
}

// activeConns returns the number of live connections.
func (s *Server) activeConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Shutdown drains gracefully: stop accepting, tell every connection
// goodbye, wait (on the injected clock) up to DrainGrace for clients to
// finish, then Close. Safe to call once; Close may follow.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.send(proto.Response{Kind: proto.RespGoodbye, Code: proto.ByeDrain, Msg: "server draining"})
	}
	if s.activeConns() > 0 {
		graceTicks := int(s.cfg.DrainGrace / s.cfg.SweepPeriod)
		if graceTicks < 1 {
			graceTicks = 1
		}
		tk := s.cfg.Clock.NewTicker(s.cfg.SweepPeriod)
		for waited := 0; s.activeConns() > 0 && waited < graceTicks; waited++ {
			<-tk.C()
		}
		tk.Stop()
	}
	s.Close()
}

// Close stops the server immediately: listener and every connection are
// closed, the janitor is stopped, and every session is dropped.
// Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.nc.Close()
	}
	close(s.sweepStop)
	<-s.sweepDone
	s.wg.Wait()
	// Every read loop has exited (wg), so no batch is being applied and
	// none will be: drop the sessions.
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for name := range sh.m {
			delete(sh.m, name)
			s.m.SessionsOpen.Add(-1)
		}
		sh.mu.Unlock()
	}
	// No read loop remains, so nothing can persist anymore: drain the
	// persister and release the store client. Stored snapshots survive the
	// server on purpose — they are what a replacement rehydrates from.
	if s.db != nil {
		close(s.persistCh)
		<-s.persistDone
		s.db.Close()
	}
	// Read loops (wg) and the sweeper (sweepDone) are stopped above, so
	// no tee producer survives: drain the archive queue and seal every
	// open segment. Sealed segments outlive the server on purpose — they
	// are what an operator queries after an incident.
	if s.seg != nil {
		s.seg.Close()
	}
}

// isAbruptClose classifies a read-loop error: a peer that vanished
// mid-stream (crash, reset, our own Close) versus a stream that violated
// the trace framing (malformed input). An in-memory net.Pipe closed under
// the reader reports io.ErrClosedPipe, not wrapped in a net.OpError.
func isAbruptClose(err error) bool {
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}
