package client_test

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"armus/internal/client"
	"armus/internal/clock"
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/fleet"
	"armus/internal/server"
	"armus/internal/store"
)

func startStore(t *testing.T) *store.Server {
	t.Helper()
	st, err := store.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("store.NewServer: %v", err)
	}
	t.Cleanup(st.Close)
	return st
}

func startFleetServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFleetRoutingAndFailover: with a fleet list, the client connects to
// the session's rendezvous owner; when the owner is unreachable it walks
// the rank order and lands on the survivor.
func TestFleetRoutingAndFailover(t *testing.T) {
	live := startFleetServer(t, server.Config{})
	// A dead fleet member: a listener that was closed right away, so dials
	// to it fail fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	addrs := []string{deadAddr, live.Addr()}
	fm, err := fleet.New(addrs)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a session the DEAD member owns, so the walk is exercised.
	sess := ""
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("walk-%d", i)
		if fm.Owner(name) == deadAddr {
			sess = name
			break
		}
	}
	if sess == "" {
		t.Fatal("no session owned by the dead member in 1000 candidates")
	}

	c, err := client.Dial(client.Config{
		Fleet: addrs, Session: sess, Mode: core.ModeAvoid,
		DialTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("Dial via failover: %v", err)
	}
	defer c.Close()
	if err := c.Block(st(1, 2, 1, 1, 0)); err != nil {
		t.Fatalf("block on failover target: %v", err)
	}
	var ge *client.GateError
	if err := c.Block(st(2, 1, 1, 2, 0)); !errors.As(err, &ge) {
		t.Fatalf("deadlock-closing block: got %v, want *GateError", err)
	}
}

// TestFleetModeMismatchStopsWalk: a protocol refusal (session runs in the
// other mode) is permanent — the client must NOT mask it by walking to the
// next fleet member and silently splitting the session.
func TestFleetModeMismatchStopsWalk(t *testing.T) {
	s1 := startFleetServer(t, server.Config{})
	s2 := startFleetServer(t, server.Config{})
	addrs := []string{s1.Addr(), s2.Addr()}
	fm, err := fleet.New(addrs)
	if err != nil {
		t.Fatal(err)
	}
	sess := ""
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("modal-%d", i)
		if fm.Owner(name) == s1.Addr() {
			sess = name
			break
		}
	}
	if sess == "" {
		t.Fatal("no session owned by s1 in 1000 candidates")
	}
	c1, err := client.Dial(client.Config{Fleet: addrs, Session: sess, Mode: core.ModeAvoid})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	_, err = client.Dial(client.Config{Fleet: addrs, Session: sess, Mode: core.ModeDetect})
	if err == nil || !strings.Contains(err.Error(), "mode") {
		t.Fatalf("mode-conflict dial: got %v, want mode-mismatch error (walk must stop)", err)
	}
}

// TestFleetChaosKillServer is the satellite-1 chaos run: 3 servers sharing
// one store, 32 sessions routed by rendezvous hashing, one server killed
// abruptly mid-run. The requirement is ZERO divergence: every gate answer
// and every checkpoint verdict after the kill must equal what an unkilled
// run produces (here: all blocks admitted, all checkpoints false — the
// workload is deadlock-free by construction), with the orphaned sessions
// resuming on the survivors.
func TestFleetChaosKillServer(t *testing.T) {
	stSrv := startStore(t)
	var servers []*server.Server
	for i := 0; i < 3; i++ {
		servers = append(servers, startFleetServer(t, server.Config{
			StoreAddr: stSrv.Addr(), SnapshotEvery: 1,
		}))
	}
	addrs := []string{servers[0].Addr(), servers[1].Addr(), servers[2].Addr()}
	fm, err := fleet.New(addrs)
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 32
	const preRounds = 5
	const postRounds = 6
	names := make([]string, sessions)
	for i := range names {
		names[i] = fmt.Sprintf("chaos-%d", i)
	}
	// Kill the owner of names[0] so at least one session is orphaned.
	victimAddr := fm.Owner(names[0])
	victimIdx := 0
	for i, a := range addrs {
		if a == victimAddr {
			victimIdx = i
		}
	}
	ownedByVictim := 0
	for _, n := range names {
		if fm.Owner(n) == victimAddr {
			ownedByVictim++
		}
	}

	var reports atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	atBarrier := make(chan struct{}, sessions) // clients report reaching the kill point
	killed := make(chan struct{})              // closed once the victim is dead
	clients := make([]*client.Client, sessions)

	for i := 0; i < sessions; i++ {
		mode := core.ModeAvoid
		if i%2 == 1 {
			mode = core.ModeDetect
		}
		c, err := client.Dial(client.Config{
			Fleet: addrs, Session: names[i], Mode: mode,
			Subscribe: true, OnReport: func(client.Report) { reports.Add(1) },
			RedialBackoff: 5 * time.Millisecond, DialTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatalf("Dial %s: %v", names[i], err)
		}
		clients[i] = c
		t.Cleanup(func() { c.Close() })
	}

	round := func(c *client.Client, base int64) error {
		for k := int64(0); k < 4; k++ {
			task := base + k
			q := task%4 + 1
			if err := c.Register(deps.TaskID(task), deps.PhaserID(q), 1, 0); err != nil {
				return err
			}
			// Arrived at its own phaser: deadlock-free by construction, so
			// any refusal is a divergence.
			if err := c.Block(deps.Blocked{
				Task:     deps.TaskID(task),
				WaitsFor: []deps.Resource{{Phaser: deps.PhaserID(q), Phase: 1}},
				Regs:     []deps.Reg{{Phaser: deps.PhaserID(q), Phase: 1}},
			}); err != nil {
				return fmt.Errorf("block task%d: %w", task, err)
			}
		}
		if d, err := c.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		} else if d {
			return errors.New("spurious deadlock verdict")
		}
		for k := int64(0); k < 4; k++ {
			if err := c.Unblock(deps.TaskID(base + k)); err != nil {
				return err
			}
		}
		return nil
	}

	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := clients[i]
			// A sentinel task stays blocked for the whole run, so the
			// session state (and thus its snapshot) is never empty.
			if err := c.Block(st(int64(1000+i), 9, 1, 9, 1)); err != nil {
				errCh <- fmt.Errorf("%s sentinel: %w", names[i], err)
				return
			}
			for r := 0; r < preRounds; r++ {
				if err := round(c, int64(r*10)); err != nil {
					errCh <- fmt.Errorf("%s pre-kill round %d: %w", names[i], r, err)
					return
				}
			}
			atBarrier <- struct{}{}
			<-killed
			for r := 0; r < postRounds; r++ {
				if err := round(c, int64(r*10)); err != nil {
					errCh <- fmt.Errorf("%s post-kill round %d: %w", names[i], r, err)
					return
				}
			}
		}(i)
	}

	for i := 0; i < sessions; i++ {
		<-atBarrier
	}
	// Give the victim's persister a beat to drain, then kill it abruptly:
	// Close severs every connection with no goodbye — the SIGKILL analogue
	// for an in-process server.
	waitUntil(t, func() bool { return servers[victimIdx].Metrics().SnapshotsPersisted.Load() >= 1 })
	servers[victimIdx].Close()
	close(killed)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if reports.Load() != 0 {
		t.Fatalf("deadlock reports pushed = %d, want 0", reports.Load())
	}
	// Every orphaned client failed over (its connection died with the
	// victim), and the survivors rehydrated their sessions from the store.
	var rehydrated int64
	for i, s := range servers {
		if i == victimIdx {
			continue
		}
		rehydrated += s.Metrics().SessionsRehydrated.Load()
	}
	if ownedByVictim > 0 && rehydrated < 1 {
		t.Fatalf("rehydrated sessions = %d, want >= 1 (%d sessions were orphaned)",
			rehydrated, ownedByVictim)
	}
	orphanReconnects := 0
	for i := range clients {
		if fm.Owner(names[i]) == victimAddr && clients[i].Reconnects() >= 1 {
			orphanReconnects++
		}
	}
	if orphanReconnects < ownedByVictim {
		t.Fatalf("only %d of %d orphaned clients reconnected", orphanReconnects, ownedByVictim)
	}
}

// TestFleetLeaseExpiryResume is the deterministic-clock chaos variant: the
// session is garbage-collected after its lease (clock.Fake ticks, not wall
// time), and a LATER client still resumes from the store snapshot — the
// reconnect-after-GC window, exercised through the SDK. The first client is
// cut off, not closed: a session that ended cleanly has its snapshot
// deleted at GC.
func TestFleetLeaseExpiryResume(t *testing.T) {
	stSrv := startStore(t)
	fc := clock.NewFake()
	s := startFleetServer(t, server.Config{
		StoreAddr: stSrv.Addr(), SnapshotEvery: 1,
		Lease: 2 * time.Second, SweepPeriod: time.Second, Clock: fc,
	})

	p := newProxy(t, s.Addr())
	c1, err := client.Dial(client.Config{
		Addr: p.Addr(), Session: "lease", Mode: core.ModeAvoid,
		RedialAttempts: 1, RedialBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Block(st(1, 2, 1, 1, 0)); err != nil {
		t.Fatalf("block: %v", err)
	}
	waitUntil(t, func() bool { return s.Metrics().SnapshotsPersisted.Load() >= 1 })
	p.Close() // c1 is cut off and cannot redial
	waitUntil(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
	for i := 0; i < 10 && s.Metrics().SessionsGCed.Load() == 0; i++ {
		fc.Tick()
	}
	if s.Metrics().SessionsGCed.Load() != 1 {
		t.Fatal("session not collected after lease")
	}

	c2, err := client.Dial(client.Config{Addr: s.Addr(), Session: "lease", Mode: core.ModeAvoid})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Resumed() {
		t.Fatal("post-GC client did not resume from the snapshot")
	}
	var ge *client.GateError
	if err := c2.Block(st(2, 1, 1, 2, 0)); !errors.As(err, &ge) {
		t.Fatalf("deadlock-closing block after GC+rehydrate: got %v, want *GateError", err)
	}
}

// TestDeadWriterStatusSurvivesFailover: a session's state after failover
// includes the writers that are not back. W2 is pinned to the session's
// owner A; W1 routes by the fleet. W2 blocks task2, A persists and dies, W1
// fails over to B and blocks task1, closing a cycle with task2. Only the
// snapshot carries task2 to B — W2 never reconnects — so B refuses the block
// only because A's last snapshot is kept as input, as a dead site's is (§5.2).
func TestDeadWriterStatusSurvivesFailover(t *testing.T) {
	stSrv := startStore(t)
	a := startFleetServer(t, server.Config{StoreAddr: stSrv.Addr(), SnapshotEvery: 1})
	b := startFleetServer(t, server.Config{StoreAddr: stSrv.Addr(), SnapshotEvery: 1})
	addrs := []string{a.Addr(), b.Addr()}
	fm, err := fleet.New(addrs)
	if err != nil {
		t.Fatal(err)
	}
	sess := ""
	for i := 0; i < 1000 && sess == ""; i++ {
		if name := fmt.Sprintf("dead-writer-%d", i); fm.Owner(name) == a.Addr() {
			sess = name
		}
	}
	if sess == "" {
		t.Fatal("no session owned by A in 1000 candidates")
	}

	w2, err := client.Dial(client.Config{
		Addr: a.Addr(), Session: sess, Mode: core.ModeAvoid,
		RedialAttempts: 1, RedialBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	w1, err := client.Dial(client.Config{
		Fleet: addrs, Session: sess, Mode: core.ModeAvoid,
		RedialBackoff: 5 * time.Millisecond, DialTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()

	// task3 is W1's own and unrelated, so W1's resync on B is not empty.
	if err := w1.Block(st(3, 5, 1, 6, 0)); err != nil {
		t.Fatalf("block of task3: %v", err)
	}
	// task2 waits phaser1@1, impedes phaser2@1.
	if err := w2.Block(st(2, 1, 1, 2, 0)); err != nil {
		t.Fatalf("block of task2: %v", err)
	}
	waitUntil(t, func() bool { return a.Metrics().SnapshotsPersisted.Load() >= 2 })
	a.Close() // the kill

	// task1 waits phaser2@1, impedes phaser1@1: the cycle [1 2].
	var ge *client.GateError
	if err := w1.Block(st(1, 2, 1, 1, 0)); !errors.As(err, &ge) {
		t.Fatalf("cycle-closing block after failover: got %v, want *GateError (W2's task2 lost with A)", err)
	}
	if w1.Reconnects() < 1 || b.Metrics().SessionsRehydrated.Load() != 1 {
		t.Fatalf("W1 reconnects %d, B rehydrated %d: want W1 on B, resumed from A's snapshot",
			w1.Reconnects(), b.Metrics().SessionsRehydrated.Load())
	}
}

// TestOnlyCutOffSessionsKeepSnapshots is a load generator's run in small:
// 16 SDK clients that close cleanly and 4 that are cut off, each in its own
// session. After the lease the store holds exactly the 4 cut-off sessions'
// snapshots — what failover may still need — and nothing of the rest.
func TestOnlyCutOffSessionsKeepSnapshots(t *testing.T) {
	stSrv := startStore(t)
	fc := clock.NewFake()
	s := startFleetServer(t, server.Config{
		StoreAddr: stSrv.Addr(), SnapshotEvery: 1,
		Lease: 2 * time.Second, SweepPeriod: time.Second, Clock: fc,
	})
	p := newProxy(t, s.Addr())

	const closed, cut = 16, 4
	var cutKeys []string
	for i := 0; i < closed+cut; i++ {
		name := fmt.Sprintf("load-%d", i)
		addr := s.Addr()
		if i >= closed {
			addr = p.Addr()
			cutKeys = append(cutKeys, "armus:sess:"+name)
		}
		c, err := client.Dial(client.Config{
			Addr: addr, Session: name, Mode: core.ModeAvoid,
			RedialAttempts: 1, RedialBackoff: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Block(st(1, 2, 1, 1, 0)); err != nil {
			t.Fatalf("%s: block: %v", name, err)
		}
		if i < closed {
			if err := c.Close(); err != nil {
				t.Fatalf("%s: close: %v", name, err)
			}
		}
	}
	waitUntil(t, func() bool { return s.Metrics().SnapshotsPersisted.Load() >= closed+cut })
	p.Close() // the last 4 are cut off and cannot redial
	waitUntil(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
	for i := 0; i < 10 && s.Metrics().SessionsGCed.Load() < closed+cut; i++ {
		fc.Tick()
	}
	if n := s.Metrics().SessionsGCed.Load(); n != closed+cut {
		t.Fatalf("%d sessions collected after lease, want %d", n, closed+cut)
	}

	db := store.Dial(stSrv.Addr())
	defer db.Close()
	var keys []string
	waitUntil(t, func() bool {
		ents, err := db.MGetPrefix("armus:sess:")
		keys = keys[:0]
		for _, e := range ents {
			keys = append(keys, string(e.Key)) // a session's entry is one plain key
		}
		return err == nil && len(keys) <= cut
	})
	slices.Sort(keys)
	slices.Sort(cutKeys)
	if !slices.Equal(keys, cutKeys) {
		t.Fatalf("store keeps %v, want the cut-off sessions' %v", keys, cutKeys)
	}
	if n := s.Metrics().SnapshotErrors.Load(); n != 0 {
		t.Fatalf("SnapshotErrors = %d, want 0", n)
	}
}
