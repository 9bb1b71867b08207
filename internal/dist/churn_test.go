package dist

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/sim/oracle"
	"armus/internal/store"
)

// referenceView is the merged view as every round used to build it, kept
// here as the reference the persistent one is checked against: a fresh
// snapshot of the local state with every peer's decoded view appended.
func referenceView(s *Site) []deps.Blocked {
	merged := s.v.State().Snapshot()
	for _, pv := range s.peers {
		merged = append(merged, pv.view...)
	}
	return merged
}

// referenceVerdict is the analysis every round used to run on that view:
// the graph built from nothing under the adaptive §5.1 model, and a full
// cycle search.
func referenceVerdict(bd *deps.Builder, merged []deps.Blocked) bool {
	return bd.Build(deps.ModelAuto, merged).FindDeadlock(merged) != nil
}

// ghost is a site that exists only as fields the test writes straight into
// the store — well-formed ones, and every kind of damaged one.
type ghost struct {
	id      int
	present bool
	want    []deps.Blocked // what its fields say when they are whole; sorted
	base    []deps.Blocked // the content of its stored base, when that is whole
	baseSeq uint64
	seq     uint64
}

func (g *ghost) key() string { return fmt.Sprintf("%s%d", keyPrefix, g.id) }

// churn is a small cluster under seeded random abuse.
type churn struct {
	t       *testing.T
	rng     *rand.Rand
	where   string // "seed S step N", for failures
	addr    string
	srv     *store.Server
	c       *store.Client
	sites   []*Site
	ghosts  []*ghost
	bd      *deps.Builder
	phasers []deps.PhaserID
	roaming []deps.TaskID // tasks that any site, real or ghost, may claim

	// contested[s] are the tasks site s saw two sources claim at once and
	// has not yet seen unclaimed (see verify).
	contested map[*Site]map[deps.TaskID]bool

	verified, deadlocked, unspecified, settles int
}

func (c *churn) fatalf(format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("%s: %s", c.where, fmt.Sprintf(format, args...))
}

func (c *churn) must(err error) {
	c.t.Helper()
	if err != nil {
		c.fatalf("%v", err)
	}
}

func (c *churn) newSite(id int) *Site {
	if id%2 == 1 {
		return NewSite(id, c.addr, WithFullSnapshotEvery(2))
	}
	return NewSite(id, c.addr)
}

// status draws a blocked status for tk: it has arrived at the phase it
// awaits of one phaser, and is registered with one in three of the others,
// ahead of their waiters or behind.
func (c *churn) status(tk deps.TaskID) deps.Blocked {
	w := deps.Resource{Phaser: c.phasers[c.rng.Intn(len(c.phasers))], Phase: int64(1 + c.rng.Intn(3))}
	b := deps.Blocked{Task: tk, WaitsFor: []deps.Resource{w}}
	for _, q := range c.phasers {
		if q == w.Phaser {
			b.Regs = append(b.Regs, deps.Reg{Phaser: q, Phase: w.Phase})
		} else if c.rng.Intn(3) == 0 {
			b.Regs = append(b.Regs, deps.Reg{Phaser: q, Phase: int64(c.rng.Intn(4))})
		}
	}
	return b
}

// ownTask draws one of the tasks only site id (real or ghost) claims.
func (c *churn) ownTask(id int) deps.TaskID {
	return deps.TaskID(int64(id)<<SiteIDShift + int64(1+c.rng.Intn(3)))
}

// ghostContent draws what a ghost claims next: some of its own tasks and,
// now and then, a roaming one.
func (c *churn) ghostContent(g *ghost) []deps.Blocked {
	var out []deps.Blocked
	for k := int64(1); k <= 3; k++ {
		if c.rng.Intn(3) == 0 {
			out = append(out, c.status(deps.TaskID(int64(g.id)<<SiteIDShift+k)))
		}
	}
	if c.rng.Intn(8) == 0 {
		out = append(out, c.status(c.roaming[c.rng.Intn(len(c.roaming))]))
	}
	slices.SortFunc(out, byTask)
	return out
}

// writeBase replaces the ghost's fields by one whole base. Every third is
// written out of order, which the wire format allows.
func (c *churn) writeBase(g *ghost, content []deps.Blocked, dropDelta bool) {
	g.seq++
	g.baseSeq, g.base, g.want, g.present = g.seq, content, content, true
	wire := slices.Clone(content)
	if c.rng.Intn(3) == 0 {
		c.rng.Shuffle(len(wire), func(i, j int) { wire[i], wire[j] = wire[j], wire[i] })
	}
	if dropDelta {
		_, err := c.c.Del(g.key())
		c.must(err)
	}
	c.must(c.c.HSet(g.key(), "base", encodeSnapshot(g.id, g.seq, wire)))
}

// cut returns payload short of its last few bytes: a header that peeks
// fine over a body that does not decode.
func (c *churn) cut(payload []byte) []byte {
	return payload[:len(payload)-1-c.rng.Intn(min(3, len(payload)-1))]
}

func (c *churn) ghostStep(g *ghost) {
	if !g.present {
		c.writeBase(g, c.ghostContent(g), true)
		return
	}
	switch op := c.rng.Intn(12); {
	case op < 4: // a whole delta against the stored base, if that is whole
		if g.base == nil {
			c.writeBase(g, c.ghostContent(g), true)
			return
		}
		g.seq++
		g.want = c.ghostContent(g)
		removed, upserts := diffSnapshots(g.base, g.want, nil, nil)
		c.must(c.c.HSet(g.key(), "delta", encodeDelta(g.id, g.baseSeq, g.seq, removed, upserts)))
	case op < 6: // a re-base
		c.writeBase(g, c.ghostContent(g), true)
	case op < 8: // a base replaced under the delta of the old one
		c.writeBase(g, c.ghostContent(g), false)
	case op < 9: // a delta that is no delta
		c.must(c.c.HSet(g.key(), "delta", []byte("not a delta")))
	case op < 10: // a delta whose header is right and whose body is cut short
		g.seq++
		removed, upserts := diffSnapshots(g.base, c.ghostContent(g), nil, nil)
		c.must(c.c.HSet(g.key(), "delta", c.cut(encodeDelta(g.id, g.baseSeq, g.seq, removed, upserts))))
	case op < 11: // a base that is none, or one cut short
		payload := []byte("not a snapshot")
		if c.rng.Intn(2) == 0 {
			g.seq++
			payload = c.cut(encodeSnapshot(g.id, g.seq, c.ghostContent(g)))
		}
		c.must(c.c.HSet(g.key(), "base", payload))
		g.base = nil
	default: // withdrawn
		_, err := c.c.Del(g.key())
		c.must(err)
		g.present, g.want, g.base = false, nil, nil
	}
}

// vandalise damages what a real site published in a way its next round
// notices from the echo of its own fields.
func (c *churn) vandalise(s *Site) {
	switch c.rng.Intn(4) {
	case 0:
		c.must(c.c.HSet(s.key(), "delta", []byte("not a delta")))
	case 1:
		c.must(c.c.HSet(s.key(), "base", []byte("not a snapshot")))
	case 2:
		// Drop the base field: rewrite the hash with the fields it keeps.
		ents, err := c.c.MGetPrefix(s.key())
		c.must(err)
		p := c.c.Pipeline()
		p.Del(s.key())
		for _, e := range ents {
			if string(e.Key) == s.key() && string(e.Field) != "base" {
				p.HSet(s.key(), string(e.Field), e.Value)
			}
		}
		_, err = p.Exec()
		c.must(err)
	default:
		_, err := c.c.Del(s.key())
		c.must(err)
	}
}

// claimants returns the real sites whose local state holds tk.
func (c *churn) claimants(tk deps.TaskID) []*Site {
	var out []*Site
	for _, s := range c.sites {
		if slices.ContainsFunc(s.v.State().Snapshot(), func(b deps.Blocked) bool { return b.Task == tk }) {
			out = append(out, s)
		}
	}
	return out
}

func (c *churn) randomSite() *Site { return c.sites[c.rng.Intn(len(c.sites))] }

// round runs one of the four ways a site reaches a verdict and checks it.
func (c *churn) round(s *Site) {
	var rep *core.DeadlockError
	var err error
	switch k := c.rng.Intn(10); {
	case k < 7:
		rep, err = s.RoundOnce()
	case k < 8:
		rep, err = s.CheckOnce()
	case k < 9:
		c.must(s.PublishOnce())
		rep, err = s.AnalyzeCached()
	default:
		rep, err = s.AnalyzeCached()
	}
	c.must(err)
	c.verify(s, rep)
}

// verify holds the verdict a site just returned, and what its persistent
// merged view holds, against the reference built from nothing out of the
// same local state and the same decoded peer views. A task that two of the
// site's sources claimed at once is set aside from then until the site has
// seen every claim withdrawn: which status it holds meanwhile, if any, is
// not specified. That it holds nothing nobody claims always is.
func (c *churn) verify(s *Site, rep *core.DeadlockError) {
	c.t.Helper()
	ref := referenceView(s)
	want := referenceVerdict(c.bd, ref)
	slices.SortStableFunc(ref, byTask)
	got := s.merged.State().Snapshot()
	c.verified++
	if rep != nil {
		c.deadlocked++
		held := map[deps.TaskID]deps.Blocked{}
		for _, b := range got {
			held[b.Task] = b
		}
		for i, from := range rep.Cycle.Tasks {
			to := rep.Cycle.Tasks[(i+1)%len(rep.Cycle.Tasks)]
			w, ok := held[from], false
			for _, r := range held[to].Regs {
				ok = ok || len(w.WaitsFor) == 1 && r.Phaser == w.WaitsFor[0].Phaser && r.Phase < w.WaitsFor[0].Phase
			}
			if !ok {
				c.fatalf("site %d: reported cycle %v has no edge %d -> %d in %+v", s.ID(), rep.Cycle.Tasks, from, to, got)
			}
		}
	}
	contested := c.contested[s]
	if contested == nil {
		contested = map[deps.TaskID]bool{}
		c.contested[s] = contested
	}
	claimed := map[deps.TaskID]bool{}
	for i, b := range ref {
		claimed[b.Task] = true
		if i > 0 && ref[i-1].Task == b.Task {
			contested[b.Task] = true
		}
	}
	for tk := range contested {
		if !claimed[tk] {
			delete(contested, tk)
		}
	}
	setAside := func(b deps.Blocked) bool { return contested[b.Task] }
	for _, b := range got {
		if !claimed[b.Task] {
			c.fatalf("site %d: merged view holds task %d, which no source claims: %+v", s.ID(), b.Task, ref)
		}
	}
	if got, ref = slices.DeleteFunc(got, setAside), slices.DeleteFunc(ref, setAside); !sameSnapshot(got, ref) {
		c.fatalf("site %d: merged view holds %+v, the sources claim %+v", s.ID(), got, ref)
	}
	if len(contested) > 0 {
		c.unspecified++
	} else if (rep != nil) != want {
		c.fatalf("site %d: verdict %v, reference %v\nview: %+v", s.ID(), rep != nil, want, ref)
	}
}

// withdrawContested makes every claimant of a task withdraw when there is
// more than one, or when some site has seen more than one and not yet none.
// It reports whether there was such a task.
func (c *churn) withdrawContested() (any bool) {
	for _, tk := range c.roaming {
		var drops []func() // one per claimant, withdrawing its claim
		for _, g := range c.ghosts {
			if i, ok := slices.BinarySearchFunc(g.want, tk, func(b deps.Blocked, tk deps.TaskID) int { return cmp.Compare(b.Task, tk) }); ok {
				drops = append(drops, func() { g.want = slices.Delete(slices.Clone(g.want), i, i+1) })
			}
		}
		for _, s := range c.claimants(tk) {
			drops = append(drops, func() { s.v.State().Clear(tk) })
		}
		unspecified := len(drops) > 1
		for _, s := range c.sites {
			unspecified = unspecified || c.contested[s][tk]
		}
		if unspecified {
			any = true
			for _, drop := range drops {
				drop()
			}
		}
	}
	return any
}

// settle brings the cluster to a point where every site has published what
// it holds and fetched what every other published, every damaged field is
// whole again and no site is left with a task whose status is unspecified —
// where each site's verdict must be the oracle's on the union of it all,
// and its merged view that union.
func (c *churn) settle() {
	reps := make([]*core.DeadlockError, len(c.sites))
	// A fetch early in a pass can pair one site's new claim with the stale
	// one of a site whose turn to publish is yet to come, and so contest a
	// task that nobody claims twice: go round until no site saw that.
	for first := true; c.withdrawContested() || first; first = false {
		for _, g := range c.ghosts {
			if g.present {
				c.writeBase(g, g.want, true)
			}
		}
		for pass := 0; pass < 2; pass++ { // everyone publishes, then everyone has fetched it
			for i, s := range c.sites {
				var err error
				reps[i], err = s.RoundOnce()
				c.must(err)
				c.verify(s, reps[i])
			}
		}
	}
	var union []deps.Blocked
	for _, g := range c.ghosts {
		union = append(union, g.want...)
	}
	o := oracle.NewState()
	for _, s := range c.sites {
		union = append(union, s.v.State().Snapshot()...)
	}
	slices.SortFunc(union, byTask)
	for _, b := range union {
		regs := map[int64]int64{}
		for _, r := range b.Regs {
			regs[int64(r.Phaser)] = r.Phase
		}
		o.AddBlocked(int64(b.Task), oracle.Await{Phaser: int64(b.WaitsFor[0].Phaser), Phase: b.WaitsFor[0].Phase}, regs)
	}
	stuck := oracle.StuckSet(o)
	for i, s := range c.sites {
		if (reps[i] != nil) != (len(stuck) > 0) {
			c.fatalf("settled site %d: verdict %v, oracle's stuck set %v\nunion: %+v", s.ID(), reps[i] != nil, stuck, union)
		}
		if got := s.merged.State().Snapshot(); !sameSnapshot(got, union) {
			c.fatalf("settled site %d: merged view holds %+v, the cluster %+v", s.ID(), got, union)
		}
	}
	c.settles++
}

// TestDistChurnAgainstReference drives a cluster of four sites and two
// ghosts on one store through seeded random churn — tasks blocking,
// re-blocking and resuming, rounds of every kind on random sites, re-bases
// every other publish, bases replaced under old deltas, corrupt deltas and
// bases, withdrawn and vandalised keys, sites closed and re-created, the
// store restarted empty, tasks migrating between sites and claimed by two
// at once — and after every round holds the site's verdict and the content
// of its persistent merged view against the from-scratch reference, and at
// settle points every site against the exhaustive oracle.
func TestDistChurnAgainstReference(t *testing.T) {
	steps := 30000
	if testing.Short() {
		steps = 4000
	}
	for seed := int64(1); seed <= 2; seed++ {
		dir, err := os.MkdirTemp("", "armus-churn")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		c := &churn{
			t: t, rng: rand.New(rand.NewSource(seed)), addr: "unix:" + filepath.Join(dir, "s"),
			bd: deps.NewBuilder(), contested: map[*Site]map[deps.TaskID]bool{},
			phasers: []deps.PhaserID{1, 2, 3, 4, 5, 6},
			roaming: []deps.TaskID{7, 8},
			ghosts:  []*ghost{{id: 90}, {id: 91}},
		}
		if c.srv, err = store.NewServer(c.addr); err != nil {
			t.Fatal(err)
		}
		c.c = store.Dial(c.addr)
		for id := 1; id <= 4; id++ {
			c.sites = append(c.sites, c.newSite(id))
		}
		for step := 0; step < steps; step++ {
			c.where = fmt.Sprintf("seed %d step %d", seed, step)
			switch op := c.rng.Intn(100); {
			case op < 16: // block, or block again
				s := c.randomSite()
				s.v.State().SetBlocked(c.status(c.ownTask(s.ID())))
			case op < 44: // resume
				s := c.randomSite()
				tk := c.ownTask(s.ID())
				if c.rng.Intn(4) == 0 {
					tk = c.roaming[c.rng.Intn(len(c.roaming))]
				}
				s.v.State().Clear(tk)
			case op < 82:
				c.round(c.randomSite())
			case op < 89:
				c.ghostStep(c.ghosts[c.rng.Intn(len(c.ghosts))])
			case op < 91:
				c.vandalise(c.randomSite())
			case op < 94: // a task moves: it has left where it was, for all to see, before it blocks elsewhere
				tk := c.roaming[c.rng.Intn(len(c.roaming))]
				for _, s := range c.claimants(tk) {
					s.v.State().Clear(tk)
					c.must(s.PublishOnce())
				}
				c.randomSite().v.State().SetBlocked(c.status(tk))
			case op < 95: // a task claimed twice over
				tk := c.roaming[c.rng.Intn(len(c.roaming))]
				c.randomSite().v.State().SetBlocked(c.status(tk))
				c.randomSite().v.State().SetBlocked(c.status(tk))
			case op < 96:
				if c.rng.Intn(3) == 0 { // a site closes and one of its name starts afresh
					i := c.rng.Intn(len(c.sites))
					c.sites[i].Close()
					c.sites[i] = c.newSite(i + 1)
				}
			case op < 97:
				if c.rng.Intn(5) == 0 { // the store restarts empty
					c.srv.Close()
					if c.srv, err = store.NewServer(c.addr); err != nil {
						t.Fatal(err)
					}
					for _, g := range c.ghosts {
						g.present, g.want, g.base = false, nil, nil
					}
				}
			default:
				c.settle()
			}
		}
		c.settle()
		var total SiteStats
		for _, s := range c.sites {
			st := s.Stats()
			total.DeltaFallbacks += st.DeltaFallbacks
			total.SnapshotsDropped += st.SnapshotsDropped
			total.StoreRepairs += st.StoreRepairs
			total.AnalysisSkips += st.AnalysisSkips
			total.FullSnapshots += st.FullSnapshots
			total.DeltaSnapshots += st.DeltaSnapshots
			s.Close()
		}
		c.c.Close()
		c.srv.Close()
		t.Logf("seed %d: %d verdicts checked (%d deadlocks, %d unspecified for a contested task), %d settles; %+v",
			seed, c.verified, c.deadlocked, c.unspecified, c.settles, total)
		if c.deadlocked < c.verified/20 || c.deadlocked > c.verified*19/20 || c.unspecified == 0 || c.unspecified > c.verified/5 ||
			total.DeltaFallbacks == 0 || total.SnapshotsDropped == 0 || total.StoreRepairs == 0 ||
			total.AnalysisSkips == 0 || total.DeltaSnapshots == 0 {
			t.Fatalf("seed %d: the churn missed a case it is there for", seed)
		}
	}
}
