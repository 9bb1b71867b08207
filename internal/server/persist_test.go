package server

import (
	"bufio"
	"hash/maphash"
	"runtime"
	"testing"
	"time"

	"armus/internal/clock"
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/server/proto"
	"armus/internal/store"
	"armus/internal/trace"
)

// testStore starts an in-process armus-store for the persistence tests.
func testStore(t *testing.T) *store.Server {
	t.Helper()
	st, err := store.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("store.NewServer: %v", err)
	}
	t.Cleanup(st.Close)
	return st
}

// readKind reads responses until one of the wanted kind arrives (reports
// and unrelated answers may interleave).
func readKind(t *testing.T, br *bufio.Reader, kind proto.RespKind) proto.Response {
	t.Helper()
	var r proto.Response
	for i := 0; i < 16; i++ {
		if err := proto.ReadResponse(br, &r); err != nil {
			t.Fatalf("reading response: %v", err)
		}
		if r.Kind == kind {
			return r
		}
	}
	t.Fatalf("no %v response within 16 reads", kind)
	return r
}

// TestSnapshotRehydrateAcrossServers is the failover core: state persisted
// by one server is the state a DIFFERENT server serves after the first one
// dies. Server A gates a block and persists it; A is killed abruptly;
// server B — sharing nothing with A but the store — reports the attach as
// resumed and still refuses the deadlock-closing block.
func TestSnapshotRehydrateAcrossServers(t *testing.T) {
	st := testStore(t)
	sA := testServer(t, Config{StoreAddr: st.Addr(), SnapshotEvery: 1})

	ncA, twA, brA, resumed := rawAttach(t, sA, "failover", core.ModeAvoid)
	if resumed {
		t.Fatal("fresh session reported as resumed")
	}
	// task1 waits phaser2@1, impedes phaser1@1. Admitted.
	if err := twA.WriteEvent(trace.Event{Kind: trace.KindBlock,
		Status: status(1, []deps.Resource{res(2, 1)}, []deps.Reg{reg(1, 0)})}); err != nil {
		t.Fatal(err)
	}
	if err := twA.Flush(); err != nil {
		t.Fatal(err)
	}
	if r := readKind(t, brA, proto.RespGate); !r.Allowed {
		t.Fatalf("block of task1 refused: %+v", r)
	}
	waitFor(t, func() bool { return sA.Metrics().SnapshotsPersisted.Load() >= 1 })
	ncA.Close()
	sA.Close() // the kill: abrupt, no drain

	sB := testServer(t, Config{StoreAddr: st.Addr(), SnapshotEvery: 1})
	ncB, twB, brB, resumed := rawAttach(t, sB, "failover", core.ModeAvoid)
	defer ncB.Close()
	if !resumed {
		t.Fatal("attach on the replacement server did not resume from the snapshot")
	}
	if got := sB.Metrics().SessionsRehydrated.Load(); got != 1 {
		t.Fatalf("SessionsRehydrated = %d, want 1", got)
	}
	// task2 waits phaser1@1, impedes phaser2@1 — closes the cycle with the
	// rehydrated task1. Only a server that recovered A's state can refuse.
	if err := twB.WriteEvent(trace.Event{Kind: trace.KindBlock,
		Status: status(2, []deps.Resource{res(1, 1)}, []deps.Reg{reg(2, 0)})}); err != nil {
		t.Fatal(err)
	}
	if err := twB.Flush(); err != nil {
		t.Fatal(err)
	}
	if r := readKind(t, brB, proto.RespGate); r.Allowed {
		t.Fatal("deadlock-closing block admitted: rehydrated state is incomplete")
	}
}

// TestGCLeavesSnapshotIntact is the satellite-4 regression: the lease
// janitor drops ONLY the in-memory session and engine — the store
// snapshot must survive, so a client reconnecting AFTER the lease still
// resumes. Before the fix, a GC-then-reconnect within the snapshot cadence
// silently restarted the session empty.
func TestGCLeavesSnapshotIntact(t *testing.T) {
	st := testStore(t)
	fc := clock.NewFake()
	s := testServer(t, Config{
		StoreAddr: st.Addr(), SnapshotEvery: 1,
		Lease: 2 * time.Second, SweepPeriod: time.Second, Clock: fc,
	})

	nc, tw, br, _ := rawAttach(t, s, "leased", core.ModeAvoid)
	if err := tw.WriteEvent(trace.Event{Kind: trace.KindBlock,
		Status: status(1, []deps.Resource{res(2, 1)}, []deps.Reg{reg(1, 0)})}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if r := readKind(t, br, proto.RespGate); !r.Allowed {
		t.Fatalf("block of task1 refused: %+v", r)
	}
	waitFor(t, func() bool { return s.Metrics().SnapshotsPersisted.Load() >= 1 })
	nc.Close()
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })

	// Let the lease run out: the janitor collects the in-memory session.
	for i := 0; i < 10 && s.Metrics().SessionsGCed.Load() == 0; i++ {
		fc.Tick()
	}
	if m := s.Metrics(); m.SessionsGCed.Load() != 1 || m.SessionsOpen.Load() != 0 {
		t.Fatalf("session not collected after lease: %+v", m)
	}

	// The reconnect after GC: same server, but the table entry is gone —
	// only the store snapshot can resume it.
	nc2, tw2, br2, resumed := rawAttach(t, s, "leased", core.ModeAvoid)
	defer nc2.Close()
	if !resumed {
		t.Fatal("reconnect after GC did not resume: the janitor deleted the snapshot")
	}
	if got := s.Metrics().SessionsRehydrated.Load(); got < 1 {
		t.Fatalf("SessionsRehydrated = %d, want >= 1", got)
	}
	if err := tw2.WriteEvent(trace.Event{Kind: trace.KindBlock,
		Status: status(2, []deps.Resource{res(1, 1)}, []deps.Reg{reg(2, 0)})}); err != nil {
		t.Fatal(err)
	}
	if err := tw2.Flush(); err != nil {
		t.Fatal(err)
	}
	if r := readKind(t, br2, proto.RespGate); r.Allowed {
		t.Fatal("deadlock-closing block admitted after GC + rehydrate")
	}
}

// TestSnapshotModeMismatchStartsFresh: a stored snapshot written under one
// mode must not seed a session attached under the other — mode changes the
// engine, so the snapshot is discarded and the session starts fresh.
func TestSnapshotModeMismatchStartsFresh(t *testing.T) {
	st := testStore(t)
	fc := clock.NewFake()
	s := testServer(t, Config{
		StoreAddr: st.Addr(), SnapshotEvery: 1,
		Lease: time.Second, SweepPeriod: time.Second, Clock: fc,
	})

	nc, tw, br, _ := rawAttach(t, s, "switch", core.ModeAvoid)
	if err := tw.WriteEvent(trace.Event{Kind: trace.KindBlock,
		Status: status(1, []deps.Resource{res(2, 1)}, []deps.Reg{reg(1, 0)})}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	readKind(t, br, proto.RespGate)
	waitFor(t, func() bool { return s.Metrics().SnapshotsPersisted.Load() >= 1 })
	nc.Close()
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
	for i := 0; i < 10 && s.Metrics().SessionsGCed.Load() == 0; i++ {
		fc.Tick()
	}

	nc2, _, _, resumed := rawAttach(t, s, "switch", core.ModeDetect)
	defer nc2.Close()
	if resumed {
		t.Fatal("detect-mode attach resumed an avoid-mode snapshot")
	}
}

// TestLaterOwnerReplacesSnapshot: each owner of a session replaces the
// stored snapshot whole, so nothing an earlier owner wrote survives the next
// owner's write — neither a task unblocked in between nor a value that no
// longer decodes.
func TestLaterOwnerReplacesSnapshot(t *testing.T) {
	st := testStore(t)
	cfg := Config{StoreAddr: st.Addr(), SnapshotEvery: 1}
	send := func(tw *trace.Writer, e trace.Event) {
		t.Helper()
		if err := tw.WriteEvent(e); err != nil {
			t.Fatal(err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// A session's first owner: task1, then task3, each persisted.
	firstOwner := func(session string) {
		t.Helper()
		srv := testServer(t, cfg)
		nc, tw, br, _ := rawAttach(t, srv, session, core.ModeAvoid)
		for i, task := range []int64{1, 3} {
			send(tw, trace.Event{Kind: trace.KindBlock,
				Status: status(task, []deps.Resource{res(task+1, 1)}, []deps.Reg{reg(task, 0)})})
			if r := readKind(t, br, proto.RespGate); !r.Allowed {
				t.Fatalf("block of task%d refused: %+v", task, r)
			}
			waitFor(t, func() bool { return srv.Metrics().SnapshotsPersisted.Load() >= int64(i+1) })
		}
		nc.Close()
		srv.Close()
	}
	firstOwner("handover") // owner A

	// Owner B resumes both tasks, unblocks task3 and persists once.
	sB := testServer(t, cfg)
	ncB, twB, _, resumed := rawAttach(t, sB, "handover", core.ModeAvoid)
	if !resumed {
		t.Fatal("owner B did not resume from A's snapshot")
	}
	send(twB, trace.Event{Kind: trace.KindUnblock, Task: 3})
	waitFor(t, func() bool { return sB.Metrics().SnapshotsPersisted.Load() >= 1 })
	ncB.Close()
	sB.Close()

	// Owner C must see what B left: task1 alone.
	snap, _ := testServer(t, cfg).fetchSnapshot("handover", core.ModeAvoid)
	if len(snap) != 1 || snap[0].Task != 1 {
		t.Fatalf("owner C rehydrates %v, want task1 only (A's task3 outlived B's write)", snap)
	}

	// The same hand-over with the stored value gone bad in between: the next
	// owner rehydrates nothing and its write must replace the bad value.
	firstOwner("corrupt") // owner D
	db := store.Dial(st.Addr())
	defer db.Close()
	if err := db.Set(sessionKey("corrupt"), append([]byte{byte(core.ModeAvoid)}, "not a snapshot"...)); err != nil {
		t.Fatal(err)
	}

	// Owner E finds nothing it can use, admits task5 and persists.
	sE := testServer(t, cfg)
	ncE, twE, brE, resumed := rawAttach(t, sE, "corrupt", core.ModeAvoid)
	if resumed {
		t.Fatal("owner E resumed from a corrupt base")
	}
	send(twE, trace.Event{Kind: trace.KindBlock,
		Status: status(5, []deps.Resource{res(6, 1)}, []deps.Reg{reg(5, 0)})})
	if r := readKind(t, brE, proto.RespGate); !r.Allowed {
		t.Fatalf("block of task5 refused: %+v", r)
	}
	waitFor(t, func() bool { return sE.Metrics().SnapshotsPersisted.Load() >= 1 })
	ncE.Close()
	sE.Close()

	// Owner F must see what E left: task5 alone.
	snap, _ = testServer(t, cfg).fetchSnapshot("corrupt", core.ModeAvoid)
	if len(snap) != 1 || snap[0].Task != 5 {
		t.Fatalf("owner F rehydrates %v, want task5 only (D's statuses outlived E's write)", snap)
	}
}

// TestCleanEndDeletesSnapshotAtGC: a session whose last connection ended
// its trace cleanly has nothing left to fail over, so the lease janitor
// deletes its store entry — after the snapshot it persisted, on the same
// queue.
func TestCleanEndDeletesSnapshotAtGC(t *testing.T) {
	st := testStore(t)
	fc := clock.NewFake()
	s := testServer(t, Config{
		StoreAddr: st.Addr(), SnapshotEvery: 1,
		Lease: 2 * time.Second, SweepPeriod: time.Second, Clock: fc,
	})

	nc, tw, br, _ := rawAttach(t, s, "done", core.ModeAvoid)
	if err := tw.WriteEvent(trace.Event{Kind: trace.KindBlock,
		Status: status(1, []deps.Resource{res(2, 1)}, []deps.Reg{reg(1, 0)})}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if r := readKind(t, br, proto.RespGate); !r.Allowed {
		t.Fatalf("block of task1 refused: %+v", r)
	}
	waitFor(t, func() bool { return s.Metrics().SnapshotsPersisted.Load() >= 1 })
	db := store.Dial(st.Addr())
	defer db.Close()
	if ents, err := db.MGetPrefix(sessionKeyPrefix); err != nil || len(ents) != 1 {
		t.Fatalf("before GC: %d entries, %v; want the session's one", len(ents), err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	nc.Close()
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
	for i := 0; i < 10 && s.Metrics().SessionsGCed.Load() == 0; i++ {
		fc.Tick()
	}
	if s.Metrics().SessionsGCed.Load() != 1 {
		t.Fatal("session not collected after lease")
	}
	waitFor(t, func() bool {
		ents, err := db.MGetPrefix(sessionKeyPrefix)
		return err == nil && len(ents) == 0
	})
	if n := s.Metrics().SnapshotErrors.Load(); n != 0 {
		t.Fatalf("SnapshotErrors = %d, want 0", n)
	}
}

// TestGCDeleteWaitsForRoomInTheQueue: the janitor hands a DEL to the
// persister without blocking, so while the queue is full a cleanly ended
// session stays in the table and the next sweep retries — a burst of
// expiring sessions must not leave their entries behind. A session that
// never had an entry costs no DEL at all.
func TestGCDeleteWaitsForRoomInTheQueue(t *testing.T) {
	s := &Server{cfg: Config{Logf: func(string, ...any) {}}.withDefaults(),
		seed: maphash.MakeSeed(), persistCh: make(chan persistReq, 1)}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*session)
	}
	for _, name := range []string{"done", "never"} {
		ss := newSession(s, name, core.ModeAvoid, nil)
		ss.cleanEnd, ss.stored, ss.idleTicks = true, name == "done", 100
		s.shardFor(name).m[name] = ss
	}
	s.persistCh <- persistReq{key: "full", val: []byte{1}}

	s.sweep()
	if _, ok := s.shardFor("done").m["done"]; !ok || s.m.SessionsGCed.Load() != 1 || s.m.SnapshotsDropped.Load() != 1 {
		t.Fatalf("full queue: done still held %v, GCed %d, dropped %d; want held, 1 (never), 1",
			ok, s.m.SessionsGCed.Load(), s.m.SnapshotsDropped.Load())
	}
	<-s.persistCh
	s.sweep()
	if _, ok := s.shardFor("done").m["done"]; ok || s.m.SessionsGCed.Load() != 2 {
		t.Fatalf("after room: done still held %v, GCed %d; want collected, 2", ok, s.m.SessionsGCed.Load())
	}
	if req := <-s.persistCh; req.key != sessionKey("done") || req.val != nil || len(s.persistCh) != 0 {
		t.Fatalf("queued %+v (%d more), want one DEL of %s", req, len(s.persistCh), sessionKey("done"))
	}
}

// TestWarmSnapshotAllocatesNothing: a session encodes each snapshot into
// the buffer the persister handed back after its last SET, and keeps its
// store key, so while the persister drains a warm session's persistSnapshot
// allocates nothing. The store still ends up with the last state.
func TestWarmSnapshotAllocatesNothing(t *testing.T) {
	s := testServer(t, Config{StoreAddr: testStore(t).Addr()})
	ss := newSession(s, "warm", core.ModeAvoid, nil)
	for i := range 12 {
		// A block of task 1 at a new phase moves the version and keeps the
		// snapshot's size.
		ss.eng.Block(status(1, []deps.Resource{res(2, int64(i%60+1))}, []deps.Reg{reg(1, int64(i%60))}))
		done := s.m.SnapshotsPersisted.Load()
		var before, after runtime.MemStats
		prev := runtime.GOMAXPROCS(1) // the persister waits until the count is read
		runtime.ReadMemStats(&before)
		ss.persistSnapshot()
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(prev)
		if n := after.Mallocs - before.Mallocs; i > 0 && n != 0 {
			t.Fatalf("snapshot %d: persistSnapshot allocated %d times (%d B), want 0",
				i, n, after.TotalAlloc-before.TotalAlloc)
		}
		waitFor(t, func() bool { return s.m.SnapshotsPersisted.Load() > done })
	}
	snap, stored := s.fetchSnapshot("warm", core.ModeAvoid)
	if !stored || len(snap) != 1 || snap[0].WaitsFor[0] != res(2, 12) {
		t.Fatalf("stored snapshot %+v (found %v), want task 1 waiting on phaser 2 at 12", snap, stored)
	}
}
