package dist

import (
	"fmt"
	"testing"
	"time"

	"armus/internal/clock"
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/store"
)

// siteKeys lists the site keys in the store, each once: one MGETP returns
// an entry per field, sorted by key.
func siteKeys(c *store.Client) ([]string, error) {
	ents, err := c.MGetPrefix(keyPrefix)
	var keys []string
	for _, e := range ents {
		if n := len(keys); n == 0 || keys[n-1] != string(e.Key) {
			keys = append(keys, string(e.Key))
		}
	}
	return keys, err
}

func TestCodecRoundTrip(t *testing.T) {
	snap := []deps.Blocked{
		{
			Task:     deps.TaskID(3<<SiteIDShift + 7),
			WaitsFor: []deps.Resource{{Phaser: 3<<SiteIDShift + 1, Phase: 4}},
			Regs: []deps.Reg{
				{Phaser: 3<<SiteIDShift + 1, Phase: 4},
				{Phaser: 5<<SiteIDShift + 2, Phase: 0},
			},
		},
		{Task: 1}, // no waits, no regs
		{
			Task:     42,
			WaitsFor: []deps.Resource{{Phaser: -8, Phase: -1}}, // zig-zag path
			Regs:     []deps.Reg{},
		},
	}
	payload := encodeSnapshot(3, 99, snap)
	id, seq, got, err := decodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 || seq != 99 {
		t.Fatalf("id, seq = %d, %d", id, seq)
	}
	if len(got) != len(snap) {
		t.Fatalf("decoded %d statuses, want %d", len(got), len(snap))
	}
	for i := range snap {
		if got[i].Task != snap[i].Task ||
			!sliceEqual(got[i].WaitsFor, snap[i].WaitsFor) ||
			!sliceEqual(got[i].Regs, snap[i].Regs) {
			t.Fatalf("status %d: got %+v, want %+v", i, got[i], snap[i])
		}
	}
}

func sliceEqual[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCodecEmptySnapshot(t *testing.T) {
	payload := encodeSnapshot(7, 1, nil)
	id, seq, snap, err := decodeSnapshot(payload)
	if err != nil || id != 7 || seq != 1 || len(snap) != 0 {
		t.Fatalf("empty round trip: %d %d %v %v", id, seq, snap, err)
	}
}

func TestCodecRejectsCorrupt(t *testing.T) {
	good := encodeSnapshot(1, 1, []deps.Blocked{{
		Task:     5,
		WaitsFor: []deps.Resource{{Phaser: 2, Phase: 1}},
		Regs:     []deps.Reg{{Phaser: 2, Phase: 0}},
	}})
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOTARMUS-------"),
		"truncated":   good[:len(good)-3],
		"trailing":    append(append([]byte{}, good...), 0),
		"only magic":  []byte(snapshotMagic),
		"huge length": append([]byte(snapshotMagic), 1, 1, 0xff, 0xff, 0xff, 0xff, 0x7f),
	}
	for name, payload := range cases {
		if _, _, _, err := decodeSnapshot(payload); err == nil {
			t.Fatalf("%s: decode accepted corrupt payload", name)
		}
	}
}

// newCluster starts a store and n sites with a deadlock-report channel per
// site, all cleaned up with the test.
func newCluster(t testing.TB, n int, opts ...Option) (*store.Server, []*Site, chan *core.DeadlockError) {
	t.Helper()
	srv, err := store.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	reports := make(chan *core.DeadlockError, 16*n)
	sites := make([]*Site, n)
	for i := range sites {
		all := append([]Option{
			WithPeriod(3 * time.Millisecond),
			WithOnDeadlock(func(e *core.DeadlockError) {
				select {
				case reports <- e:
				default:
				}
			}),
		}, opts...)
		sites[i] = NewSite(i+1, srv.Addr(), all...)
		t.Cleanup(sites[i].Close)
	}
	return srv, sites, reports
}

func TestSiteIDsAreDisjoint(t *testing.T) {
	_, sites, _ := newCluster(t, 3)
	seenT := map[deps.TaskID]int{}
	seenP := map[deps.PhaserID]int{}
	for _, s := range sites {
		for i := 0; i < 4; i++ {
			task := s.Verifier().NewTask(fmt.Sprintf("t%d", i))
			if prev, dup := seenT[task.ID()]; dup {
				t.Fatalf("task ID %d minted by sites %d and %d", task.ID(), prev, s.ID())
			}
			seenT[task.ID()] = s.ID()
			if got := SiteOf(int64(task.ID())); got != s.ID() {
				t.Fatalf("SiteOf(%d) = %d, want %d", task.ID(), got, s.ID())
			}
			ph := s.Verifier().NewPhaser(task)
			if prev, dup := seenP[ph.ID()]; dup {
				t.Fatalf("phaser ID %d minted by sites %d and %d", ph.ID(), prev, s.ID())
			}
			seenP[ph.ID()] = s.ID()
		}
	}
}

// TestSiteSurvivesStoreRestart is the §5.2 fault-tolerance property at the
// site level: a store restart mid-run costs some rounds (counted as
// errors) but the site keeps publishing and checking once the store is
// back, without being restarted itself. The loop is stepped by a fake
// clock, so every phase of the outage is asserted deterministically.
func TestSiteSurvivesStoreRestart(t *testing.T) {
	srv, err := store.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	fc := clock.NewFake()
	s := NewSite(1, addr, WithClock(fc))
	defer s.Close()
	s.Start()
	fc.Round() // one full publish+check round against the live store
	if st := s.Stats(); st.Publishes == 0 || st.Checks == 0 {
		t.Fatalf("no publish/check after a settled round: %+v", st)
	}

	srv.Close()
	fc.Round() // a settled round against the dead store
	if s.Stats().PublishErrors == 0 {
		t.Fatal("store death not reflected in publish errors")
	}

	srv2, err := store.NewServer(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	before := s.Stats()
	fc.Round()
	fc.Round() // the first post-restart round may still ride a dead conn
	st := s.Stats()
	if st.Publishes <= before.Publishes || st.Checks <= before.Checks {
		t.Fatalf("site did not resume after store restart: %+v -> %+v", before, st)
	}
	// The restarted (empty) store has been repopulated.
	c := store.Dial(addr)
	defer c.Close()
	keys, err := siteKeys(c)
	if err != nil || len(keys) != 1 {
		t.Fatalf("snapshot not republished: keys=%v err=%v", keys, err)
	}
}

// TestStaleAndCorruptSnapshotsDoNotWedge: the global check must complete
// while the store holds (a) a stale snapshot from a site that died without
// withdrawing it and (b) an undecodable payload under the snapshot prefix
// — and a cycle formed entirely by dead sites' stale snapshots must still
// be reported (stale statuses stay valid input: their tasks can never
// advance).
func TestStaleAndCorruptSnapshotsDoNotWedge(t *testing.T) {
	srv, sites, _ := newCluster(t, 3)
	c := store.Dial(srv.Addr())
	defer c.Close()

	arc := func(site int64, lags int64) []byte {
		ph := deps.PhaserID(site<<SiteIDShift + 1)
		return encodeSnapshot(int(site), 1, []deps.Blocked{{
			Task:     deps.TaskID(site<<SiteIDShift + 1),
			WaitsFor: []deps.Resource{{Phaser: ph, Phase: 1}},
			Regs: []deps.Reg{
				{Phaser: ph, Phase: 1},
				{Phaser: deps.PhaserID(lags<<SiteIDShift + 1), Phase: 0},
			},
		}})
	}

	// (a) A dead site 90's stale snapshot: blocked on its own barrier while
	// lagging dead site 92's — internally acyclic, never refreshed again.
	if err := c.HSet(keyPrefix+"90", "base", arc(90, 92)); err != nil {
		t.Fatal(err)
	}
	// (b) Garbage under the prefix.
	if err := c.HSet(keyPrefix+"91", "base", []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}

	for _, s := range sites {
		rep, err := s.CheckOnce()
		if err != nil {
			t.Fatalf("site %d: check wedged: %v", s.ID(), err)
		}
		if rep != nil {
			t.Fatalf("site %d: stale acyclic snapshot misreported as deadlock: %v", s.ID(), rep)
		}
		if s.Stats().SnapshotsDropped == 0 {
			t.Fatalf("site %d: corrupt snapshot not counted as dropped", s.ID())
		}
	}

	// (c) Dead site 92's stale snapshot closes the ring with 90's. The
	// deadlock is real and permanent — neither dead site's tasks can ever
	// advance — so every live site must report it.
	if err := c.HSet(keyPrefix+"92", "base", arc(92, 90)); err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		rep, err := s.CheckOnce()
		if err != nil {
			t.Fatalf("site %d: check wedged: %v", s.ID(), err)
		}
		if rep == nil {
			t.Fatalf("site %d: cycle among stale snapshots not reported", s.ID())
		}
		for _, id := range rep.Cycle.Tasks {
			if got := SiteOf(int64(id)); got != 90 && got != 92 {
				t.Fatalf("site %d: unexpected task %d (site %d) on cycle", s.ID(), id, got)
			}
		}
	}
}

// TestCloseWithdrawsSnapshot: a cleanly closed site removes its key so the
// survivors stop merging its final state.
func TestCloseWithdrawsSnapshot(t *testing.T) {
	srv, sites, _ := newCluster(t, 2)
	for _, s := range sites {
		if err := s.PublishOnce(); err != nil {
			t.Fatal(err)
		}
	}
	c := store.Dial(srv.Addr())
	defer c.Close()
	keys, err := siteKeys(c)
	if err != nil || len(keys) != 2 {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
	sites[0].Close()
	keys, err = siteKeys(c)
	if err != nil || len(keys) != 1 {
		t.Fatalf("after close: Keys = %v, %v", keys, err)
	}
}

func TestStartCloseIdempotent(t *testing.T) {
	srv, err := store.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s := NewSite(1, srv.Addr(), WithPeriod(time.Millisecond))
	s.Start()
	s.Start() // no second loop
	s.Close()
	s.Close() // no panic
	s.Start() // closed sites stay closed
	if err := s.PublishOnce(); err == nil {
		t.Fatal("publish through a closed client should fail")
	}
}

func TestWithVerifierModeOff(t *testing.T) {
	srv, err := store.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s := NewSite(1, srv.Addr(), WithVerifierMode(core.ModeOff))
	defer s.Close()
	if got := s.Verifier().Mode(); got != core.ModeOff {
		t.Fatalf("verifier mode = %v", got)
	}
}

func TestCheckErrorCountedWhenStoreDown(t *testing.T) {
	srv, err := store.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSite(1, srv.Addr())
	defer s.Close()
	srv.Close()
	if _, err := s.CheckOnce(); err == nil {
		t.Fatal("check against a dead store should fail")
	}
	if s.Stats().CheckErrors == 0 {
		t.Fatal("check error not counted")
	}
}

// fingerprint is the string form of appendFingerprint.
func fingerprint(c *deps.Cycle) string {
	var sc fpScratch
	return string(appendFingerprint(&sc, c))
}

func TestFingerprintIsOrderInsensitive(t *testing.T) {
	a := fingerprint(&deps.Cycle{Tasks: []deps.TaskID{3, 1, 2}})
	b := fingerprint(&deps.Cycle{Tasks: []deps.TaskID{2, 3, 1}})
	if a != b {
		t.Fatalf("fingerprints differ: %q vs %q", a, b)
	}
	c := fingerprint(&deps.Cycle{Tasks: []deps.TaskID{1, 2}})
	if a == c {
		t.Fatal("distinct cycles share a fingerprint")
	}
}

// TestReincarnatedSiteSeenBySleepingPeer: a site closes and one of its id
// starts afresh while a peer fetches nothing in between. The peer caches
// what it decoded by seq, so the new site must number its links above the
// old one's or the peer keeps the dead incarnation's view. The clock is
// frozen: only the numbering floor keeps the two incarnations apart.
func TestReincarnatedSiteSeenBySleepingPeer(t *testing.T) {
	srv, err := store.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fc := clock.NewFake()
	status := func(task int64) deps.Blocked {
		return deps.Blocked{
			Task:     deps.TaskID(1<<SiteIDShift + task),
			WaitsFor: []deps.Resource{{Phaser: 1<<SiteIDShift + 1, Phase: 1}},
		}
	}
	round := func(s *Site) {
		t.Helper()
		if _, err := s.RoundOnce(); err != nil {
			t.Fatal(err)
		}
	}
	peer := NewSite(2, srv.Addr(), WithClock(fc))
	defer peer.Close()
	old := NewSite(1, srv.Addr(), WithClock(fc))
	old.v.State().SetBlocked(status(1))
	round(old)
	round(peer)
	if got := peer.merged.State().Snapshot(); len(got) != 1 || got[0].Task != status(1).Task {
		t.Fatalf("peer's view before the withdrawal: %+v", got)
	}

	old.Close()
	site := NewSite(1, srv.Addr(), WithClock(fc))
	defer site.Close()
	site.v.State().SetBlocked(status(2))
	round(site)
	round(peer)
	if got := peer.merged.State().Snapshot(); len(got) != 1 || got[0].Task != status(2).Task {
		t.Fatalf("peer's view after the site started afresh holds %+v, want task %d alone", got, status(2).Task)
	}
}
