package dist

import (
	"testing"

	"armus/internal/deps"
	"armus/internal/store"
)

// blockedOn builds the blocked status of task (site<<shift + t): awaiting
// its own phaser's next phase while lagging phaser (lagSite<<shift + 1).
// Pairs of these form cross-site rings, as in disttest.InjectRing.
func blockedOn(site, t, lagSite int64) deps.Blocked {
	ph := deps.PhaserID(site<<SiteIDShift + 1)
	return deps.Blocked{
		Task:     deps.TaskID(site<<SiteIDShift + t),
		WaitsFor: []deps.Resource{{Phaser: ph, Phase: 1}},
		Regs: []deps.Reg{
			{Phaser: ph, Phase: 1},
			{Phaser: deps.PhaserID(lagSite<<SiteIDShift + 1), Phase: 0},
		},
	}
}

// TestDeltaCadence pins the publish cadence: the first publish is a full
// base, unchanged rounds publish nothing, changed rounds publish deltas,
// and every fullEvery-th publish re-bases.
func TestDeltaCadence(t *testing.T) {
	_, sites, _ := newCluster(t, 1, WithFullSnapshotEvery(3))
	s := sites[0]
	st := s.Verifier().State()

	if err := s.PublishOnce(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.FullSnapshots != 1 || got.DeltaSnapshots != 0 {
		t.Fatalf("first publish: %+v, want one full", got)
	}

	// Unchanged state: nothing to write.
	if err := s.PublishOnce(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.PublishSkips != 1 || got.FullSnapshots != 1 {
		t.Fatalf("unchanged publish: %+v, want one skip", got)
	}

	// Three mutations -> delta, delta, delta, then the next re-bases.
	for i := int64(0); i < 4; i++ {
		st.SetBlocked(blockedOn(1, 10+i, 1))
		if err := s.PublishOnce(); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Stats()
	if got.DeltaSnapshots != 3 || got.FullSnapshots != 2 {
		t.Fatalf("after 4 mutations with fullEvery=3: %+v, want 3 deltas and a re-base", got)
	}
}

// TestDeltaViewMatchesFullSnapshot is the differential for the seq-gated
// peer cache: at every step of an evolving publisher, a site that has been
// applying deltas over a cached base must reach exactly the verdict of a
// fresh site that decodes the store from scratch.
func TestDeltaViewMatchesFullSnapshot(t *testing.T) {
	srv, sites, _ := newCluster(t, 2, WithFullSnapshotEvery(100)) // keep deltas flowing
	pub, cached := sites[0], sites[1]
	pst := pub.Verifier().State()

	step := func(name string, mutate func()) {
		t.Helper()
		mutate()
		if err := pub.PublishOnce(); err != nil {
			t.Fatal(err)
		}
		cachedRep, err := cached.CheckOnce()
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewSite(99, srv.Addr())
		defer fresh.Close()
		freshRep, err := fresh.CheckOnce()
		if err != nil {
			t.Fatal(err)
		}
		if (cachedRep != nil) != (freshRep != nil) {
			t.Fatalf("%s: cached view says deadlock=%v, fresh decode says %v",
				name, cachedRep != nil, freshRep != nil)
		}
	}

	step("empty base", func() {})
	step("one blocked task", func() { pst.SetBlocked(blockedOn(1, 1, 1)) })
	step("self-ring forms", func() {
		// Site 1's two tasks lag each other's phaser: a cycle within the
		// published snapshot that the delta must carry over intact.
		ph1 := deps.PhaserID(1<<SiteIDShift + 1)
		ph2 := deps.PhaserID(1<<SiteIDShift + 2)
		pst.SetBlocked(deps.Blocked{
			Task:     deps.TaskID(1<<SiteIDShift + 1),
			WaitsFor: []deps.Resource{{Phaser: ph1, Phase: 1}},
			Regs:     []deps.Reg{{Phaser: ph1, Phase: 1}, {Phaser: ph2, Phase: 0}},
		})
		pst.SetBlocked(deps.Blocked{
			Task:     deps.TaskID(1<<SiteIDShift + 2),
			WaitsFor: []deps.Resource{{Phaser: ph2, Phase: 1}},
			Regs:     []deps.Reg{{Phaser: ph2, Phase: 1}, {Phaser: ph1, Phase: 0}},
		})
	})
	step("ring dissolves", func() {
		pst.Clear(deps.TaskID(1<<SiteIDShift + 2))
	})
	step("all clear", func() {
		pst.Clear(deps.TaskID(1<<SiteIDShift + 1))
	})

	if st := cached.Stats(); st.DeltaFallbacks != 0 || st.SnapshotsDropped != 0 {
		t.Fatalf("clean run dropped payloads: %+v", st)
	}
}

// TestStoreRestartMidDeltaChain: a store restart empties the hash under a
// live base+delta chain. The publisher's next round must detect the loss
// from its own MGETP echo and republish a full base immediately — peers
// never see a delta with no base for longer than one of its rounds.
func TestStoreRestartMidDeltaChain(t *testing.T) {
	srv, err := store.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	s := NewSite(1, addr, WithFullSnapshotEvery(100))
	defer s.Close()
	st := s.Verifier().State()

	// Base plus two deltas.
	if err := s.PublishOnce(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2; i++ {
		st.SetBlocked(blockedOn(1, 1+i, 1))
		if err := s.PublishOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats(); got.DeltaSnapshots != 2 || got.StoreRepairs != 0 {
		t.Fatalf("pre-restart stats: %+v", got)
	}

	srv.Close()
	srv2, err := store.NewServer(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	// The round may need one retry to ride out the dead connection.
	if _, err := s.RoundOnce(); err != nil {
		if _, err := s.RoundOnce(); err != nil {
			t.Fatalf("round against restarted store: %v", err)
		}
	}
	if got := s.Stats(); got.StoreRepairs == 0 {
		t.Fatalf("store loss not detected from the MGETP echo: %+v", got)
	}

	// The restarted store holds a self-contained full base again, and a
	// fresh peer reconstructs the exact pre-restart state from it.
	fresh := NewSite(2, addr)
	defer fresh.Close()
	if _, err := fresh.CheckOnce(); err != nil {
		t.Fatal(err)
	}
	c := store.Dial(addr)
	defer c.Close()
	payload, err := c.HGet(keyPrefix+"1", "base")
	if err != nil {
		t.Fatalf("base field not republished: %v", err)
	}
	_, _, snap, err := decodeSnapshot(payload)
	if err != nil || len(snap) != 2 {
		t.Fatalf("republished base = %d statuses, err %v; want the 2 live ones", len(snap), err)
	}
}

// TestCorruptDeltaFallsBackToBase: a corrupt (or re-based-away) delta field
// must not wedge a checker or poison its cache — the peer's base snapshot
// is a consistent fallback view, and the fallback is counted.
func TestCorruptDeltaFallsBackToBase(t *testing.T) {
	srv, sites, _ := newCluster(t, 1)
	s := sites[0]
	c := store.Dial(srv.Addr())
	defer c.Close()

	// A dead site 90 left a valid base holding half a ring...
	base := encodeSnapshot(90, 1, []deps.Blocked{blockedOn(90, 1, 92)})
	if err := c.HSet(keyPrefix+"90", "base", base); err != nil {
		t.Fatal(err)
	}
	// ...and a garbage delta field.
	if err := c.HSet(keyPrefix+"90", "delta", []byte("not a delta")); err != nil {
		t.Fatal(err)
	}
	rep, err := s.CheckOnce()
	if err != nil {
		t.Fatalf("corrupt delta wedged the check: %v", err)
	}
	if rep != nil {
		t.Fatalf("half a ring misreported as deadlock: %v", rep)
	}
	if got := s.Stats(); got.DeltaFallbacks == 0 {
		t.Fatalf("delta fallback not counted: %+v", got)
	}

	// The base view is really in use: site 92's stale half closes the ring
	// published only in 90's base.
	if err := c.HSet(keyPrefix+"92", "base", encodeSnapshot(92, 1, []deps.Blocked{blockedOn(92, 1, 90)})); err != nil {
		t.Fatal(err)
	}
	rep, err = s.CheckOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("ring through the fallback base view not reported")
	}

	// A structurally valid delta against a different base (bseq mismatch)
	// also falls back rather than applying out of order.
	stale := encodeDelta(90, 7, 8, nil, []deps.Blocked{blockedOn(90, 5, 90)})
	if err := c.HSet(keyPrefix+"90", "delta", stale); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().DeltaFallbacks
	if _, err := s.CheckOnce(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().DeltaFallbacks; got <= before {
		t.Fatalf("re-based delta not counted as fallback: %d -> %d", before, got)
	}
}

// TestRoundOnceIsOneRoundTrip pins the tentpole's store-traffic contract:
// a verification round is one pipelined round trip carrying the publish
// writes and a single MGETP — never the KEYS + N GETs it replaced.
func TestRoundOnceIsOneRoundTrip(t *testing.T) {
	_, sites, _ := newCluster(t, 2)
	s := sites[0]
	if _, err := s.RoundOnce(); err != nil { // warm-up: first base publish
		t.Fatal(err)
	}
	before := s.StoreStats()
	s.Verifier().State().SetBlocked(blockedOn(1, 1, 1))
	if _, err := s.RoundOnce(); err != nil {
		t.Fatal(err)
	}
	after := s.StoreStats()
	if got := after.RoundTrips - before.RoundTrips; got != 1 {
		t.Fatalf("round cost %d round trips, want 1", got)
	}
	if got := after.Commands["MGETP"] - before.Commands["MGETP"]; got != 1 {
		t.Fatalf("round issued %d MGETPs, want 1", got)
	}
	for _, cmd := range []string{"KEYS", "GET"} {
		if after.Commands[cmd] != 0 {
			t.Fatalf("round used %s (%d times); the batched protocol must not", cmd, after.Commands[cmd])
		}
	}
}

// TestAppendFingerprintAllocs: the loop's per-round deadlock dedup must not
// allocate once its scratch buffers are warm.
func TestAppendFingerprintAllocs(t *testing.T) {
	cyc := &deps.Cycle{Tasks: []deps.TaskID{
		3<<SiteIDShift + 7, 1<<SiteIDShift + 2, 2<<SiteIDShift + 9, 5,
	}}
	var sc fpScratch
	appendFingerprint(&sc, cyc) // warm the buffers
	if n := testing.AllocsPerRun(100, func() {
		appendFingerprint(&sc, cyc)
	}); n != 0 {
		t.Fatalf("appendFingerprint allocates %v per call, want 0", n)
	}
}
