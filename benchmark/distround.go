package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"armus/benchmark/gen"
	"armus/internal/core"
	"armus/internal/dist"
)

// distWL is the dist-round workload, the paper's §5.2: three dist.Sites in
// this process, in observe mode, share an armus-store subprocess over a unix
// socket. One driver applies each mutation of a Cross-shaped trace to the
// site that owns the task and runs that site's verification round; the
// round's verdict must be the in-process detection replay's, and every 64
// mutations all three sites must agree on it. The dist codec, the store and
// the analysis of the merged view dominate; client, server and segment are
// absent.
type distWL struct {
	e    env
	seed int64
	secs float64

	dir      string
	sockAddr string
	store    *proc
	echo     *echoPeer
	sites    []*dist.Site
	in       *input
	pos      int
	lapMut   int
	muts     int64
}

const (
	distSites   = 3
	settleEvery = 64
	// Span names, by index.
	spSet, spRound, spCheck = 1, 2, 3
)

func newDist(e env, seed int64, secs float64) *distWL { return &distWL{e: e, seed: seed, secs: secs} }

func (d *distWL) setUp() (err error) {
	defer func() {
		if err != nil {
			err = errors.Join(err, d.tearDown())
		}
	}()
	d.pos, d.lapMut, d.muts = 0, 0, 0
	if d.in, err = makeInput(gen.Config{
		Shape: gen.Cross(distSites, 8), Seed: d.seed, Rounds: 64,
		Mode: core.ModeObserve, InjectEvery: 1000,
	}); err != nil {
		return err
	}
	if d.dir, err = runDir(d.e, "dist-round"); err != nil {
		return err
	}
	if d.store, d.sockAddr, err = startStore(d.e, d.dir); err != nil {
		return err
	}
	if d.echo, err = startEcho(d.e, d.dir, "unix", "echo.sock", 1); err != nil {
		return err
	}
	for i := 1; i <= distSites; i++ {
		d.sites = append(d.sites, dist.NewSite(i, d.sockAddr))
	}
	// One round each, so the first timed round does not pay the dial.
	for _, s := range d.sites {
		if _, err := s.RoundOnce(); err != nil {
			return fmt.Errorf("site %d: first round: %w", s.ID(), err)
		}
	}
	return nil
}

func (d *distWL) tearDown() error {
	for _, s := range d.sites {
		s.Close()
	}
	d.sites = nil
	err := errors.Join(d.echo.stop(), d.store.stop())
	d.echo, d.store = nil, nil
	if d.dir != "" {
		err = errors.Join(err, os.RemoveAll(d.dir))
		d.dir = ""
	}
	return err
}

// siteCounters sums what the sites and their store clients counted so far.
type siteCounters struct {
	st               dist.SiteStats
	cmds, roundTrips int64
}

func (d *distWL) counters() (c siteCounters) {
	for _, s := range d.sites {
		st := s.Stats()
		c.st.Publishes += st.Publishes
		c.st.FullSnapshots += st.FullSnapshots
		c.st.DeltaSnapshots += st.DeltaSnapshots
		c.st.Checks += st.Checks
		c.st.AnalysisSkips += st.AnalysisSkips
		c.st.PublishErrors += st.PublishErrors
		c.st.CheckErrors += st.CheckErrors
		ss := s.StoreStats()
		c.roundTrips += ss.RoundTrips
		for _, n := range ss.Commands {
			c.cmds += n
		}
	}
	return c
}

func (d *distWL) drive(dur time.Duration, sp *spanLog) (*window, error) {
	w := &window{}
	c0 := d.counters()
	store0, err := d.store.cpu()
	if err != nil {
		return nil, err
	}
	var rounds, checks int64
	events := d.in.tr.Events
	self0, start := selfCPU(), time.Now()
	deadline := start.Add(dur)
	for {
		ev := &events[d.pos]
		if d.pos++; d.pos == len(events) {
			d.pos = 0
		}
		if !ev.IsMutation() {
			continue
		}
		site := d.sites[dist.SiteOf(int64(ev.Task))-1]
		sb := sp.sampled(0, d.muts)
		root := sb.begin(spOp, -1, d.muts)
		call := sb.begin(spSet, root, d.muts)
		applyMutation(site.Verifier().State(), ev)
		sb.end(call)
		call = sb.begin(spRound, root, d.muts)
		t0 := time.Now()
		rep, err := site.RoundOnce()
		now := time.Now()
		sb.end(call)
		if err != nil {
			return nil, fmt.Errorf("site %d: round: %w", site.ID(), err)
		}
		w.lat.Observe(int64(now.Sub(t0)))
		rounds++
		want := d.in.verdicts[d.lapMut]
		if (rep != nil) != want {
			w.failed++
		}
		if want {
			w.positives++
		}
		if d.lapMut++; d.lapMut == d.in.mutations {
			d.lapMut = 0
		}
		if d.muts++; d.muts%settleEvery == 0 {
			// The one-phase property: every site reaches the verdict on
			// its own from what the others published.
			for _, s := range d.sites {
				call := sb.begin(spCheck, root, d.muts)
				rep, err := s.CheckOnce()
				sb.end(call)
				if err != nil {
					return nil, fmt.Errorf("site %d: check: %w", s.ID(), err)
				}
				checks++
				if (rep != nil) != want {
					w.failed++
				}
			}
		}
		sb.end(root)
		if now.After(deadline) {
			break
		}
	}
	w.wall, w.selfCPU = time.Since(start), selfCPU()-self0
	store1, err := d.store.cpu()
	if err != nil {
		return nil, err
	}
	w.sutCPU = w.selfCPU + store1 - store0
	w.events, w.ops = rounds, rounds+checks
	c1 := d.counters()
	if errs := c1.st.PublishErrors + c1.st.CheckErrors - c0.st.PublishErrors - c0.st.CheckErrors; errs > 0 {
		w.failed += errs
	}
	if sp != nil {
		w.counts = metrics{
			"cmds":         float64(c1.cmds - c0.cmds),
			"round_trips":  float64(c1.roundTrips - c0.roundTrips),
			"store_cpu_us": float64((store1 - store0).Microseconds()),
			"deltas":       float64(c1.st.DeltaSnapshots - c0.st.DeltaSnapshots),
			"fulls":        float64(c1.st.FullSnapshots - c0.st.FullSnapshots),
			"skips":        float64(c1.st.AnalysisSkips - c0.st.AnalysisSkips),
			"checks":       float64(c1.st.Checks - c0.st.Checks),
		}
	}
	return w, nil
}

func (d *distWL) perLayer(w, _ *window, _ *spanLog) metrics {
	c, all := w.counts, float64(w.ops) // rounds and all-site checks
	return metrics{
		"store.cmds_per_round":        ratio(c["cmds"], all),
		"store.round_trips_per_round": ratio(c["round_trips"], all),
		"store.cpu_us_per_round":      ratio(c["store_cpu_us"], all),
		"dist.delta_share":            ratio(c["deltas"], c["deltas"]+c["fulls"]),
		"dist.analysis_skip_share":    ratio(c["skips"], c["checks"]),
	}
}

func (d *distWL) floor(dur time.Duration) (float64, error) { return d.echo.measure(dur) }
func (d *distWL) peakRSSMiB() (float64, error)             { return peakRSSMiB(os.Getpid()) }

func (d *distWL) newSpans() *spanLog {
	return newSpanLog(1, 8, "op", "deps.State.SetBlocked/Clear", "dist.Site.RoundOnce", "dist.Site.CheckOnce")
}
func (d *distWL) layers() []string {
	return []string{"floor", "deps", "graph", "core", "store", "dist"}
}

func (d *distWL) ladder(floorNs float64, m metrics) error {
	m["floor.echo_rtt_p50_us"], m["floor.lib_unchecked_ns_per_op"] = floorNs/1e3, 0
	m["core.avoid_ns_per_op"], m["core.detect_ns_per_op"] = 0, 0
	n := ladderCalls(d.secs)
	ladderDeps(d.in, n, m)
	ladderGraph(d.in, n, m)
	ladderCore(d.in, n, m)
	if err := ladderStore(d.sockAddr, n, m); err != nil {
		return err
	}
	return ladderDist(d.in, d.sockAddr, n, m)
}

func (d *distWL) audit(*window) error { return nil }
