// Package core implements the Armus runtime: a phaser library for
// goroutines with built-in dynamic deadlock verification (§5 of the paper).
//
// The package plays the role of both layers of the Armus architecture:
//
//   - the application layer — a native Go phaser runtime (generalising X10
//     clocks, Java Phaser / CyclicBarrier / CountDownLatch and join
//     barriers) that produces the blocked status of every task, and
//   - the verification layer — the resource-dependency state plus the
//     graph-based deadlock checker with fixed (WFG, SG) or adaptive model
//     selection.
//
// Two verification modes are provided. In detection mode a dedicated
// goroutine periodically samples the blocked statuses and reports existing
// deadlocks. In avoidance mode every task checks for a deadlock before it
// blocks, and the blocking operation fails with *DeadlockError instead of
// deadlocking; the failing task is deregistered from the phaser so the
// application can recover (§5, "deadlock avoidance").
package core

import (
	"fmt"
	"io"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"armus/internal/clock"
	"armus/internal/deps"
	"armus/internal/trace"
)

// Mode selects how (and whether) the verifier checks for deadlocks.
type Mode int

const (
	// ModeOff disables verification; the runtime behaves as a plain phaser
	// library. Used as the "unchecked" baseline in every benchmark.
	ModeOff Mode = iota
	// ModeDetect runs a periodic background checker that reports existing
	// deadlocks (the program is already stuck when the report fires).
	ModeDetect
	// ModeAvoid checks for a deadlock before each task blocks; blocking
	// operations return *DeadlockError instead of entering a deadlock.
	ModeAvoid
	// ModeObserve records blocked statuses like ModeDetect but runs no
	// local checker: the distributed layer (package dist) publishes the
	// state to the shared store and every site checks the global view
	// (§5.2, one-phase distributed detection).
	ModeObserve
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeDetect:
		return "detect"
	case ModeAvoid:
		return "avoid"
	case ModeObserve:
		return "observe"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// DefaultPeriod is the detection-mode scan period used by the paper's local
// evaluation (§6.1: every 100 ms).
const DefaultPeriod = 100 * time.Millisecond

// Verifier owns the resource-dependency state of one site and checks it for
// deadlocks. It is also the factory for tasks and phasers.
type Verifier struct {
	mode   Mode
	model  deps.Model
	period time.Duration
	clock  clock.Clock

	state *deps.State
	// checkMu serialises avoidance-mode checks so that two tasks racing
	// into a deadlock cannot both conclude "no cycle yet".
	checkMu sync.Mutex
	// avoidScratch is the avoidance gate's reusable DFS working set,
	// owned under checkMu, so the gate allocates nothing once warm.
	avoidScratch deps.CycleScratch
	// fullPending is set when a third party refreshes the status of an
	// already-blocked task (new impedes edges can appear without any task
	// passing the gate); the next gate runs a defensive full scan.
	fullPending atomic.Bool

	// runMu serialises full-scan checks and owns the reusable snapshot
	// buffer, builder and the version-keyed result cache of CheckNow.
	runMu          sync.Mutex
	builder        *deps.Builder
	snapBuf        []deps.Blocked
	checkedValid   bool
	checkedVersion uint64
	checkedErr     *DeadlockError

	onDeadlock func(*DeadlockError)

	// rec, when set, receives every verifier transition (register, arrive,
	// drop, block, unblock, verdict). The taps are nil-guarded, so an
	// untraced verifier pays one pointer test per transition and the
	// zero-allocation hot-path guarantees are unaffected. traceOut, when
	// set, receives the encoded trace on Close.
	rec      *trace.Recorder
	traceOut io.Writer

	nextTask   atomic.Int64
	nextPhaser atomic.Int64
	taskBase   int64 // folded into task IDs (distributed site offset)
	phaserBase int64

	namesMu sync.RWMutex
	names   map[deps.TaskID]string

	stats stats

	detectStop chan struct{}
	detectDone chan struct{}
	closeOnce  sync.Once
}

// Option configures a Verifier.
type Option func(*Verifier)

// WithMode selects the verification mode (default ModeDetect).
func WithMode(m Mode) Option { return func(v *Verifier) { v.mode = m } }

// WithModel fixes or frees the graph representation (default deps.ModelAuto).
func WithModel(m deps.Model) Option { return func(v *Verifier) { v.model = m } }

// WithPeriod sets the detection-mode scan period (default DefaultPeriod).
func WithPeriod(d time.Duration) Option { return func(v *Verifier) { v.period = d } }

// WithClock injects the clock driving the detection loop (default the real
// time.Ticker clock). Tests pass a *clock.Fake and step the detector
// deterministically instead of sleeping through scan periods.
func WithClock(c clock.Clock) Option { return func(v *Verifier) { v.clock = c } }

// WithOnDeadlock installs the detection-mode report handler. The default
// handler logs the report. The handler runs on the detector goroutine.
func WithOnDeadlock(f func(*DeadlockError)) Option {
	return func(v *Verifier) { v.onDeadlock = f }
}

// WithIDBase offsets all task and phaser IDs minted by this verifier.
// Distributed sites use disjoint bases so IDs are globally unique (§5.2).
func WithIDBase(base int64) Option {
	return func(v *Verifier) { v.taskBase, v.phaserBase = base, base }
}

// WithTraceRecorder taps the verifier: every transition — register, arrive
// (signal), drop, block, unblock and every delivered verdict — is appended
// to r, turning the run into a replayable artifact (internal/trace). The
// caller owns r and may snapshot it at any time with r.Trace().
func WithTraceRecorder(r *trace.Recorder) Option {
	return func(v *Verifier) { v.rec = r }
}

// WithTraceWriter records like WithTraceRecorder and encodes the finished
// trace to w when the verifier is closed. An encode failure is logged (the
// run itself already succeeded or failed on its own terms); callers that
// need the error handle the recorder themselves via WithTraceRecorder.
func WithTraceWriter(w io.Writer) Option {
	return func(v *Verifier) {
		if v.rec == nil {
			v.rec = trace.NewRecorder()
		}
		v.traceOut = w
	}
}

// New creates a verifier and, in detection mode, starts its background
// checker. Call Close when done.
func New(opts ...Option) *Verifier {
	v := &Verifier{
		mode:    ModeDetect,
		model:   deps.ModelAuto,
		period:  DefaultPeriod,
		clock:   clock.Real{},
		state:   deps.NewState(),
		builder: deps.NewBuilder(),
		names:   make(map[deps.TaskID]string),
	}
	for _, o := range opts {
		o(v)
	}
	if v.onDeadlock == nil {
		v.onDeadlock = func(e *DeadlockError) { log.Printf("armus: %v", e) }
	}
	if v.rec != nil {
		v.rec.SetMode(uint8(v.mode))
	}
	if v.mode == ModeDetect {
		v.detectStop = make(chan struct{})
		v.detectDone = make(chan struct{})
		go v.detectLoop()
	}
	return v
}

// Mode returns the verifier's verification mode.
func (v *Verifier) Mode() Mode { return v.mode }

// Model returns the configured graph-model selection policy.
func (v *Verifier) Model() deps.Model { return v.model }

// State exposes the resource-dependency state (used by the distributed
// layer to publish local blocked statuses).
func (v *Verifier) State() *deps.State { return v.state }

// TaskName returns the report name registered for id ("" if the task is
// unnamed or was minted by another verifier). The distributed layer uses it
// to name the local tasks of a cross-site deadlock report.
func (v *Verifier) TaskName(id deps.TaskID) string {
	v.namesMu.RLock()
	defer v.namesMu.RUnlock()
	return v.names[id]
}

// Close stops the background detector, if any, and — when WithTraceWriter
// is configured — encodes the recorded trace to its writer. Idempotent.
func (v *Verifier) Close() {
	v.closeOnce.Do(func() {
		if v.detectStop != nil {
			close(v.detectStop)
			<-v.detectDone
		}
		if v.traceOut != nil {
			if err := trace.Encode(v.traceOut, v.rec.Trace()); err != nil {
				log.Printf("armus: trace write: %v", err)
			}
		}
	})
}

// TraceRecorder returns the recorder tapped into this verifier (nil when
// untraced). The distributed layer uses it to label site traces.
func (v *Verifier) TraceRecorder() *trace.Recorder { return v.rec }

// The trace taps. Each is nil-guarded so the untraced hot path pays a
// single branch; the recorder deep-copies slice arguments, so handing it
// the task-owned status buffers is safe.

func (v *Verifier) traceRegister(t deps.TaskID, q deps.PhaserID, phase int64, m RegMode) {
	if v.rec != nil {
		v.rec.Register(t, q, phase, uint8(m))
	}
}

func (v *Verifier) traceArrive(t deps.TaskID, q deps.PhaserID, phase int64) {
	if v.rec != nil {
		v.rec.Arrive(t, q, phase)
	}
}

func (v *Verifier) traceDrop(t deps.TaskID, q deps.PhaserID) {
	if v.rec != nil {
		v.rec.Drop(t, q)
	}
}

func (v *Verifier) traceBlock(b deps.Blocked) {
	if v.rec != nil {
		v.rec.Block(b)
	}
}

func (v *Verifier) traceUnblock(t deps.TaskID) {
	if v.rec != nil {
		v.rec.Unblock(t)
	}
}

func (v *Verifier) traceRejected(b deps.Blocked, c *deps.Cycle) {
	if v.rec != nil {
		v.rec.Rejected(b, c.Tasks, c.Resources)
	}
}

func (v *Verifier) traceReported(c *deps.Cycle) {
	if v.rec != nil {
		v.rec.Reported(c.Tasks, c.Resources)
	}
}

// detectLoop is the paper's detection mode: sample the blocked statuses
// every period and run cycle analysis; report deadlocks via the handler.
// Analysis is skipped while the state is unchanged, and a given stuck state
// is reported once.
func (v *Verifier) detectLoop() {
	defer close(v.detectDone)
	ticker := v.clock.NewTicker(v.period)
	defer ticker.Stop()
	var lastVersion uint64
	var reportedVersion uint64
	first := true
	for {
		select {
		case <-v.detectStop:
			return
		case <-ticker.C():
		}
		ver := v.state.Version()
		if !first && ver == lastVersion {
			continue
		}
		first = false
		lastVersion = ver
		if cyc := v.runCheck(); cyc != nil && ver != reportedVersion {
			reportedVersion = ver
			v.stats.deadlocks.Add(1)
			v.traceReported(cyc)
			v.onDeadlock(v.newDeadlockError(cyc))
		}
	}
}

// runCheck snapshots the state, builds the configured graph model, records
// statistics, and returns the deadlock cycle, if any. It reuses the
// verifier's snapshot buffer and builder (serialised by runMu), so a
// steady stream of full scans allocates nothing once warm.
func (v *Verifier) runCheck() *deps.Cycle {
	v.runMu.Lock()
	defer v.runMu.Unlock()
	return v.runCheckLocked()
}

func (v *Verifier) runCheckLocked() *deps.Cycle {
	v.snapBuf = v.state.SnapshotInto(v.snapBuf)
	a := v.builder.Build(v.model, v.snapBuf)
	v.recordCheck(a)
	return a.FindDeadlock(v.snapBuf)
}

// CheckNow runs one synchronous deadlock check and returns a *DeadlockError
// describing the deadlock, or nil. It is safe from any goroutine and is the
// building block of the distributed checker. The verdict is cached by
// state version: repeated calls on an unchanged state return the cached
// result (the same *DeadlockError instance) without re-analysing — or
// allocating — anything.
func (v *Verifier) CheckNow() *DeadlockError {
	v.runMu.Lock()
	ver := v.state.Version()
	if v.checkedValid && ver == v.checkedVersion {
		err := v.checkedErr
		v.runMu.Unlock()
		return err
	}
	cyc := v.runCheckLocked()
	var err *DeadlockError
	if cyc != nil {
		err = v.newDeadlockError(cyc)
		v.stats.deadlocks.Add(1)
	}
	v.checkedValid = true
	v.checkedVersion = ver
	v.checkedErr = err
	v.runMu.Unlock()
	return err
}

// avoidCheck is the avoidance-mode gate: with b tentatively inserted in the
// state, look for a cycle through b.Task. On deadlock the insertion is
// rolled back and the cycle returned; otherwise b stays recorded (the task
// will block) and nil is returned. checkMu makes gate decisions atomic.
//
// The gate is TARGETED: a cycle created by this block must pass through
// b.Task, so instead of snapshotting and building a full graph it runs a
// DFS from b.Task over the state's incremental phaser index — O(reachable
// edges), zero allocations once the scratch is warm. Cycles that appear
// WITHOUT a task passing the gate (a third party registering an
// already-blocked task) flag a defensive full scan, preserving the old
// full-Tarjan semantics.
func (v *Verifier) avoidCheck(b deps.Blocked) *deps.Cycle {
	v.checkMu.Lock()
	defer v.checkMu.Unlock()
	v.state.SetBlocked(b)
	cyc, edges := v.state.CycleThrough(b.Task, &v.avoidScratch)
	v.recordEdges(int64(edges))
	if cyc == nil {
		if v.fullPending.CompareAndSwap(true, false) {
			// A blocked task's status was refreshed since the last gate:
			// edges may have appeared elsewhere. Check the whole state.
			if full := v.runCheck(); full != nil {
				v.stats.deadlocks.Add(1)
				// A refresh racing in after the targeted search could in
				// principle close a cycle through b.Task itself: refuse
				// the block then, exactly like the direct verdict. The
				// membership test must be the exact targeted query — the
				// full report's task list over-approximates under the SG
				// model (it includes tasks merely WAITING on the cycle),
				// and rejecting one of those would refuse a block that
				// creates no cycle.
				if recyc, re := v.state.CycleThrough(b.Task, &v.avoidScratch); recyc != nil {
					v.recordEdges(int64(re))
					v.state.Clear(b.Task)
					v.traceRejected(b, recyc)
					// A distinct deadlock may persist after the rollback.
					// full cannot tell us: it was computed with b inserted,
					// so it may describe b's own (now avoided) cycle, and
					// under the SG model its task list also includes mere
					// waiters. Re-scan the rolled-back state and report
					// exactly what remains standing.
					if rest := v.runCheck(); rest != nil {
						// Two deadlock events on this path — the rejection
						// and the persisting report — so a second count.
						v.stats.deadlocks.Add(1)
						v.traceReported(rest)
						v.onDeadlock(v.newDeadlockError(rest))
					}
					return recyc
				}
				// The cycle is elsewhere: report it and let this task
				// block (it is not part of the deadlock).
				v.traceReported(full)
				v.onDeadlock(v.newDeadlockError(full))
			}
		}
		// The block is accepted: b is (and stays) in the state.
		v.traceBlock(b)
		return nil
	}
	v.state.Clear(b.Task)
	v.stats.deadlocks.Add(1)
	v.traceRejected(b, cyc)
	return cyc
}

// recordEdges accounts one analysis of e edges in the check/edge counters:
// the edges of a built graph, or those a targeted gate's DFS examined.
func (v *Verifier) recordEdges(e int64) {
	v.stats.checks.Add(1)
	if e == 0 {
		return // the usual gate: the pre-filter rejected, nothing to add
	}
	v.stats.totalEdges.Add(e)
	for max := v.stats.maxEdges.Load(); e > max; max = v.stats.maxEdges.Load() {
		if v.stats.maxEdges.CompareAndSwap(max, e) {
			break
		}
	}
}

func (v *Verifier) recordCheck(a *deps.Analysis) {
	v.recordEdges(int64(a.Graph.NumEdges()))
	switch a.Model {
	case deps.ModelWFG:
		v.stats.wfgBuilds.Add(1)
	case deps.ModelSG:
		v.stats.sgBuilds.Add(1)
	}
}

func (v *Verifier) newDeadlockError(cyc *deps.Cycle) *DeadlockError {
	e := &DeadlockError{Cycle: cyc, TaskNames: make(map[deps.TaskID]string, len(cyc.Tasks))}
	v.namesMu.RLock()
	for _, t := range cyc.Tasks {
		e.TaskNames[t] = v.names[t]
	}
	v.namesMu.RUnlock()
	return e
}

// DeadlockError reports a barrier deadlock: the tasks and synchronisation
// events on (or waiting on) the dependency cycle.
type DeadlockError struct {
	Cycle     *deps.Cycle
	TaskNames map[deps.TaskID]string
}

func (e *DeadlockError) Error() string {
	msg := fmt.Sprintf("deadlock detected (%v model): tasks [", e.Cycle.Model)
	for i, t := range e.Cycle.Tasks {
		if i > 0 {
			msg += " "
		}
		if n := e.TaskNames[t]; n != "" {
			msg += n
		} else {
			msg += fmt.Sprintf("task%d", t)
		}
	}
	msg += "] events ["
	for i, r := range e.Cycle.Resources {
		if i > 0 {
			msg += " "
		}
		msg += r.String()
	}
	return msg + "]"
}

// stats holds the verifier's atomic counters.
type stats struct {
	checks     atomic.Int64
	wfgBuilds  atomic.Int64
	sgBuilds   atomic.Int64
	totalEdges atomic.Int64
	maxEdges   atomic.Int64
	deadlocks  atomic.Int64
	blocks     atomic.Int64
}

// Stats is a point-in-time copy of the verifier's counters, used by the
// evaluation harness (Table 3 needs the average edge count per check).
type Stats struct {
	Checks     int64 // graph analyses performed
	WFGBuilds  int64 // analyses that used the WFG representation
	SGBuilds   int64 // analyses that used the SG representation
	TotalEdges int64 // sum of edge counts over all analyses
	MaxEdges   int64 // largest single graph analysed
	Deadlocks  int64 // deadlocks found
	Blocks     int64 // blocking operations that actually parked
}

// AvgEdges returns the mean edge count per analysis.
func (s Stats) AvgEdges() float64 {
	if s.Checks == 0 {
		return 0
	}
	return float64(s.TotalEdges) / float64(s.Checks)
}

// Stats returns a snapshot of the verifier's counters.
func (v *Verifier) Stats() Stats {
	return Stats{
		Checks:     v.stats.checks.Load(),
		WFGBuilds:  v.stats.wfgBuilds.Load(),
		SGBuilds:   v.stats.sgBuilds.Load(),
		TotalEdges: v.stats.totalEdges.Load(),
		MaxEdges:   v.stats.maxEdges.Load(),
		Deadlocks:  v.stats.deadlocks.Load(),
		Blocks:     v.stats.blocks.Load(),
	}
}
