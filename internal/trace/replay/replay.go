// Package replay feeds recorded traces (internal/trace) back through the
// verification pipelines and asserts verdict-for-verdict equivalence.
//
// A trace's mutation events (block / unblock) are one linearization of a
// verifier's resource-dependency-state history. The replayer applies that
// sequence to a pipeline-specific checker and computes, after every
// mutation, the pipeline's deadlock verdict for the reconstructed state:
//
//   - Avoid drives the session engine (internal/engine) in avoidance mode:
//     a deps.State with its incremental per-phaser index, a recorded
//     rejection re-validated by the gate itself (a cycle through the
//     refused task);
//   - Detect drives the same engine in detection mode, as a detection
//     session of armus-serve does: the verdict is the same targeted query,
//     run from the statuses set since the last one, and a recorded
//     rejection is re-validated against the whole state. (The SG/WFG graph
//     analysis of §5.1 is the reference: internal/engine's differential
//     test checks this engine against it.)
//   - Dist deals the statuses across observe-mode dist.Sites connected to
//     a real store server: the mutated site runs a full pipelined
//     publish+fetch round (dist.Site.RoundOnce) for the per-mutation
//     verdict — exact, because every other site's last mutation is already
//     published by then — and the §5.2 all-site agreement is asserted at
//     settle points: every verdict transition, every Options.SettleEvery
//     mutations, and at end of trace.
//
// Equivalent then asserts that the per-mutation verdict sequences of any
// two pipelines are identical — the paper's model-equivalence theorems
// (4.10/4.15), checked against a real recorded execution instead of a
// synthetic snapshot.
//
// Recorded verdicts are validated too: a VerdictRejected event (the
// avoidance gate refused a block) is re-validated by tentatively inserting
// the refused status and requiring the pipeline to find the deadlock, and
// a VerdictReported event requires the pipeline's verdict to be
// "deadlocked". Both assertions apply only while every (other) task of the
// recorded cycle is still blocked at that point in the trace: verdicts are
// delivered (and mutations from other goroutines recorded) asynchronously,
// so a verdict whose cycle was torn down by an adjacent recorded event is
// counted but not asserted — which is what keeps one recorded
// linearization from ever manufacturing a spurious divergence.
package replay

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/dist"
	"armus/internal/engine"
	"armus/internal/store"
	"armus/internal/trace"
)

// Pipeline selects the verification machinery a trace is replayed through.
type Pipeline int

const (
	// Avoid replays through the session engine in avoidance mode.
	Avoid Pipeline = iota
	// Detect replays through the session engine in detection mode.
	Detect
	// Dist replays through observe-mode sites and a real store (§5.2).
	Dist
)

func (p Pipeline) String() string {
	switch p {
	case Avoid:
		return "avoid"
	case Detect:
		return "detect"
	case Dist:
		return "dist"
	default:
		return fmt.Sprintf("pipeline(%d)", int(p))
	}
}

// Pipelines lists every replay pipeline.
func Pipelines() []Pipeline { return []Pipeline{Avoid, Detect, Dist} }

// Parse expands a -pipeline flag value into pipelines.
func Parse(s string) ([]Pipeline, error) {
	switch s {
	case "avoid":
		return []Pipeline{Avoid}, nil
	case "detect":
		return []Pipeline{Detect}, nil
	case "dist":
		return []Pipeline{Dist}, nil
	case "all":
		return Pipelines(), nil
	default:
		return nil, fmt.Errorf("unknown pipeline %q (avoid, detect, dist, all)", s)
	}
}

// Options configures a replay.
type Options struct {
	// Sites is the number of sites the Dist pipeline deals statuses
	// across (default 3).
	Sites int
	// SettleEvery is how many mutations may pass between the Dist
	// pipeline's full all-site agreement checks (default 64; verdict
	// transitions and end of trace always settle).
	SettleEvery int
}

func (o Options) withDefaults() Options {
	if o.Sites <= 0 {
		o.Sites = 3
	}
	if o.SettleEvery <= 0 {
		o.SettleEvery = 64
	}
	return o
}

// Result summarises one replay of one trace through one pipeline.
type Result struct {
	Pipeline Pipeline
	// Events is the number of trace events consumed.
	Events int
	// Mutations is the number of state mutations applied (block/unblock);
	// one verdict is computed after each.
	Mutations int
	// Verdicts is the per-mutation deadlock verdict sequence.
	Verdicts []bool
	// DeadlockSteps counts the mutations after which the state was
	// deadlocked.
	DeadlockSteps int
	// Rejections is the number of recorded gate rejections re-validated.
	Rejections int
	// Reports is the number of recorded deadlock reports observed.
	Reports int
	// Deadlocked is the verdict after the final mutation (false for a
	// mutation-free trace).
	Deadlocked bool
	// StoreCommands and StoreRoundTrips count the Dist pipeline's store
	// traffic for the whole replay (zero for in-process pipelines) — the
	// replay-throughput experiment reports them per mutation.
	StoreCommands   int64
	StoreRoundTrips int64
	// Elapsed is the wall-clock replay time (the replay-throughput
	// experiment divides Events by it).
	Elapsed time.Duration
}

// EventsPerSec returns the replay throughput.
func (r *Result) EventsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Events) / r.Elapsed.Seconds()
}

// Source yields trace events in order, ending with io.EOF: both a
// *trace.Reader (streaming from a file) and the slice source used by
// ReplayTrace satisfy it.
type Source interface {
	Next() (trace.Event, error)
}

// sliceSource replays an in-memory event slice.
type sliceSource struct {
	events []trace.Event
	i      int
}

func (s *sliceSource) Next() (trace.Event, error) {
	if s.i >= len(s.events) {
		return trace.Event{}, io.EOF
	}
	e := s.events[s.i]
	s.i++
	return e, nil
}

// checker is one pipeline's state + verdict machinery.
type checker interface {
	// set applies (or refreshes) a blocked status.
	set(b deps.Blocked) error
	// clear removes a blocked status.
	clear(t deps.TaskID) error
	// verdict reports whether the current state contains a deadlock.
	verdict() (bool, error)
	// probe tentatively inserts b, reports whether the resulting state is
	// deadlocked, and removes b again (gate-rejection re-validation).
	probe(b deps.Blocked) (bool, error)
	// finish runs end-of-trace assertions (the Dist pipeline's final
	// all-site settle); a no-op for in-process pipelines.
	finish() error
	// storeStats reports cumulative store commands and round trips (zero
	// for in-process pipelines).
	storeStats() (cmds, roundTrips int64)
	close()
}

func newChecker(p Pipeline, o Options) (checker, error) {
	switch p {
	case Avoid:
		return localEngine{engine.New(core.ModeAvoid)}, nil
	case Detect:
		return localEngine{engine.New(core.ModeDetect)}, nil
	case Dist:
		return newDistEngine(o)
	default:
		return nil, fmt.Errorf("replay: unknown pipeline %v", p)
	}
}

// Replay streams the events of src through pipeline p. It fails on the
// first assertion violation: a recorded rejection that does not reproduce,
// a recorded report whose (still fully blocked) cycle the pipeline cannot
// see, or — Dist — sites disagreeing on a verdict.
func Replay(src Source, p Pipeline, o Options) (*Result, error) {
	o = o.withDefaults()
	eng, err := newChecker(p, o)
	if err != nil {
		return nil, err
	}
	defer eng.close()
	res := &Result{Pipeline: p}
	blocked := map[deps.TaskID]bool{}
	start := time.Now()
	for {
		ev, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("replay %v: event %d: %w", p, res.Events, err)
		}
		res.Events++
		fail := func(format string, args ...any) error {
			return fmt.Errorf("replay %v: event %d (%v): %s",
				p, res.Events-1, ev.Kind, fmt.Sprintf(format, args...))
		}
		switch ev.Kind {
		case trace.KindBlock, trace.KindUnblock:
			if ev.Kind == trace.KindBlock {
				if err := eng.set(ev.Status); err != nil {
					return nil, fail("%v", err)
				}
				blocked[ev.Status.Task] = true
			} else {
				if err := eng.clear(ev.Task); err != nil {
					return nil, fail("%v", err)
				}
				delete(blocked, ev.Task)
			}
			v, err := eng.verdict()
			if err != nil {
				return nil, fail("%v", err)
			}
			res.Mutations++
			res.Verdicts = append(res.Verdicts, v)
			if v {
				res.DeadlockSteps++
			}
			res.Deadlocked = v
		case trace.KindVerdict:
			switch ev.Verdict {
			case trace.VerdictRejected:
				res.Rejections++
				// Re-validate only while the recorded cycle is still fully
				// blocked in the replayed state (the rejected task itself is
				// never in it — its block was rolled back, not recorded). A
				// racing third-party deregistration can tear the cycle down
				// between the live gate's decision and the event landing in
				// the recorder, so a stale rejection is counted, not
				// asserted — the same guard reports get below.
				live := len(ev.Tasks) > 0
				for _, t := range ev.Tasks {
					if t != ev.Status.Task && !blocked[t] {
						live = false
						break
					}
				}
				if live {
					d, err := eng.probe(ev.Status)
					if err != nil {
						return nil, fail("%v", err)
					}
					if !d {
						return nil, fail("recorded gate rejection of task%d did not reproduce (cycle %v)",
							ev.Status.Task, ev.Tasks)
					}
				}
			case trace.VerdictReported:
				res.Reports++
				live := len(ev.Tasks) > 0
				for _, t := range ev.Tasks {
					if !blocked[t] {
						live = false // stale async report; count, don't assert
						break
					}
				}
				if live {
					v, err := eng.verdict()
					if err != nil {
						return nil, fail("%v", err)
					}
					if !v {
						return nil, fail("recorded deadlock report names still-blocked tasks %v but the pipeline sees no deadlock",
							ev.Tasks)
					}
				}
			default:
				return nil, fail("unknown verdict kind %d", ev.Verdict)
			}
		case trace.KindRegister, trace.KindArrive, trace.KindDrop:
			// Structural events: they do not mutate the dependency state
			// (a membership change of a blocked task is always followed by
			// its recorded status refresh).
		default:
			return nil, fail("unknown event kind %d", ev.Kind)
		}
	}
	if err := eng.finish(); err != nil {
		return nil, fmt.Errorf("replay %v: end of trace: %w", p, err)
	}
	res.Elapsed = time.Since(start)
	res.StoreCommands, res.StoreRoundTrips = eng.storeStats()
	return res, nil
}

// ReplayTrace replays a fully decoded trace.
func ReplayTrace(tr *trace.Trace, p Pipeline, o Options) (*Result, error) {
	return Replay(&sliceSource{events: tr.Events}, p, o)
}

// Equivalent asserts that every result reached the same per-mutation
// verdict sequence (and saw the same mutation/rejection counts).
func Equivalent(results ...*Result) error {
	if len(results) < 2 {
		return nil
	}
	ref := results[0]
	for _, r := range results[1:] {
		// Results from the SAME trace have identical counters by
		// construction (they are stream-derived); the length check only
		// guards against results of different traces being compared.
		if len(r.Verdicts) != len(ref.Verdicts) {
			return fmt.Errorf("pipelines %v and %v computed %d vs %d verdicts (different traces?)",
				ref.Pipeline, r.Pipeline, len(ref.Verdicts), len(r.Verdicts))
		}
		for i := range ref.Verdicts {
			if r.Verdicts[i] != ref.Verdicts[i] {
				return fmt.Errorf("verdict divergence at mutation %d: %v says %v, %v says %v",
					i, ref.Pipeline, ref.Verdicts[i], r.Pipeline, r.Verdicts[i])
			}
		}
	}
	return nil
}

// VerifyAll replays tr through every requested pipeline (all three when
// none is named) and asserts verdict-for-verdict equivalence.
func VerifyAll(tr *trace.Trace, o Options, pipelines ...Pipeline) ([]*Result, error) {
	if len(pipelines) == 0 {
		pipelines = Pipelines()
	}
	results := make([]*Result, 0, len(pipelines))
	for _, p := range pipelines {
		r, err := ReplayTrace(tr, p, o)
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, Equivalent(results...)
}

// localEngine adapts the one session engine (internal/engine) to the replay
// loop, in its avoidance mode for Avoid and its detection mode for Detect.
// A recorded block was admitted (or applied unconditionally) by the
// recording verifier, so it re-enters ungated.
type localEngine struct{ e *engine.Engine }

func (l localEngine) set(b deps.Blocked) error { l.e.Restore(b); return nil }

func (l localEngine) clear(t deps.TaskID) error { l.e.Unblock(t); return nil }

func (l localEngine) verdict() (bool, error) { return l.e.Check() != nil, nil }

func (l localEngine) probe(b deps.Blocked) (bool, error) { return l.e.Probe(b), nil }

func (l localEngine) finish() error { return nil }

func (l localEngine) storeStats() (int64, int64) { return 0, 0 }

func (l localEngine) close() {}

// AvoidEngine is the avoidance gate as the repository benchmark's set-up
// drives it; everything else uses engine.Engine directly.
type AvoidEngine struct{ e *engine.Engine }

// NewAvoidEngine returns an empty avoidance engine.
func NewAvoidEngine() *AvoidEngine {
	return &AvoidEngine{e: engine.New(core.ModeAvoid)}
}

// Gate runs the avoidance gate on b and reports whether the block was
// REJECTED (and rolled back); an admitted status stays in the state.
func (m *AvoidEngine) Gate(b deps.Blocked) (rejected bool) { return m.e.Block(b) != nil }

// Clear removes a blocked status (the task resumed).
func (m *AvoidEngine) Clear(t deps.TaskID) { m.e.Unblock(t) }

// distEngine answers verdicts with the distributed pipeline: statuses are
// dealt across observe-mode sites by task ID, and the mutated site answers
// each per-mutation verdict from one full pipelined round (RoundOnce:
// publish the delta, fetch every peer, analyse the merged view — one store
// round trip). That verdict is exact, not an approximation: a site's merged
// view is its live local state plus every peer's published snapshot, and
// the engine publishes a peer's mutations before any other site fetches,
// so the owner's view always equals the global state. When no other site
// mutated since the owner's last fetch the store round is skipped entirely
// (AnalyzeCached), which is all the engine keeps track of. The §5.2
// all-site agreement property is asserted at settle points: every verdict
// transition, every SettleEvery mutations, and at end of trace, every site
// fetches and must reach the common verdict.
type distEngine struct {
	srv         *store.Server
	sockDir     string // temp dir of the unix socket, "" when on TCP
	sites       []*dist.Site
	settleEvery int
	sinceSettle int
	lastVerdict bool
	lastOwner   int
	behind      []bool // another site mutated since this site's last fetch
	pending     []bool // site has mutations not yet published
}

func newDistEngine(o Options) (*distEngine, error) {
	srv, sockDir, err := newReplayStore()
	if err != nil {
		return nil, err
	}
	e := &distEngine{
		srv:         srv,
		sockDir:     sockDir,
		settleEvery: o.SettleEvery,
		behind:      make([]bool, o.Sites),
		pending:     make([]bool, o.Sites),
	}
	for i := 0; i < o.Sites; i++ {
		e.sites = append(e.sites, dist.NewSite(i+1, srv.Addr()))
	}
	return e, nil
}

// newReplayStore starts the store on a unix domain socket when the
// platform allows it (store, sites, and replayer are colocated in one
// process, and a local socket roughly halves the per-round latency),
// falling back to loopback TCP otherwise.
func newReplayStore() (*store.Server, string, error) {
	if dir, err := os.MkdirTemp("", "armus-replay"); err == nil {
		if srv, err := store.NewServer("unix:" + dir + "/store.sock"); err == nil {
			return srv, dir, nil
		}
		os.RemoveAll(dir)
	}
	srv, err := store.NewServer("127.0.0.1:0")
	return srv, "", err
}

func (e *distEngine) owner(t deps.TaskID) int {
	return int(uint64(t) % uint64(len(e.sites)))
}

func (e *distEngine) set(b deps.Blocked) error {
	e.sites[e.mutated(b.Task)].Verifier().State().SetBlocked(b)
	return nil
}

func (e *distEngine) clear(t deps.TaskID) error {
	e.sites[e.mutated(t)].Verifier().State().Clear(t)
	return nil
}

// mutated notes that t's site is about to change: it has something to
// publish, and every other site's fetched view of it is out of date.
func (e *distEngine) mutated(t deps.TaskID) int {
	i := e.owner(t)
	for j := range e.behind {
		e.behind[j] = e.behind[j] || j != i
	}
	e.pending[i], e.lastOwner = true, i
	return i
}

// publish flushes site i's unpublished mutations to the store.
func (e *distEngine) publish(i int) error {
	if err := e.sites[i].PublishOnce(); err != nil {
		return fmt.Errorf("dist publish (site %d): %w", e.sites[i].ID(), err)
	}
	e.pending[i] = false
	return nil
}

// verdict computes the global verdict from the last mutated site's view.
func (e *distEngine) verdict() (bool, error) {
	j := e.lastOwner
	// The owner's cached peer views are current unless some other site
	// mutated since the owner's last fetch; only then is a store round
	// needed.
	var deadlocked bool
	if !e.behind[j] {
		rep, err := e.sites[j].AnalyzeCached()
		if err != nil {
			return false, fmt.Errorf("dist analyze (site %d): %w", e.sites[j].ID(), err)
		}
		deadlocked = rep != nil
	} else {
		for i := range e.sites {
			if i != j && e.pending[i] {
				if err := e.publish(i); err != nil {
					return false, err
				}
			}
		}
		rep, err := e.sites[j].RoundOnce()
		if err != nil {
			return false, fmt.Errorf("dist round (site %d): %w", e.sites[j].ID(), err)
		}
		e.behind[j], e.pending[j] = false, false
		deadlocked = rep != nil
	}
	e.sinceSettle++
	if deadlocked != e.lastVerdict || e.sinceSettle >= e.settleEvery {
		if err := e.settle(deadlocked); err != nil {
			return false, err
		}
		e.sinceSettle = 0
	}
	e.lastVerdict = deadlocked
	return deadlocked, nil
}

// settle publishes every pending site and asserts that all sites' merged
// views agree with the owner's verdict — the one-phase §5.2 property.
func (e *distEngine) settle(want bool) error {
	for i := range e.sites {
		if e.pending[i] {
			if err := e.publish(i); err != nil {
				return err
			}
		}
	}
	for i, s := range e.sites {
		rep, err := s.CheckOnce()
		if err != nil {
			return fmt.Errorf("dist check (site %d): %w", s.ID(), err)
		}
		e.behind[i] = false
		if (rep != nil) != want {
			return fmt.Errorf("sites disagree: site %d says %v, owner site %d says %v",
				s.ID(), rep != nil, e.sites[e.lastOwner].ID(), want)
		}
	}
	return nil
}

func (e *distEngine) probe(b deps.Blocked) (bool, error) {
	if err := e.set(b); err != nil {
		return false, err
	}
	d, err := e.verdict()
	if cerr := e.clear(b.Task); cerr != nil && err == nil {
		err = cerr
	}
	return d, err
}

func (e *distEngine) finish() error { return e.settle(e.lastVerdict) }

func (e *distEngine) storeStats() (int64, int64) {
	var cmds, rts int64
	for _, s := range e.sites {
		st := s.StoreStats()
		rts += st.RoundTrips
		for _, n := range st.Commands {
			cmds += n
		}
	}
	return cmds, rts
}

func (e *distEngine) close() {
	for _, s := range e.sites {
		s.Close()
	}
	e.srv.Close()
	if e.sockDir != "" {
		os.RemoveAll(e.sockDir)
	}
}
