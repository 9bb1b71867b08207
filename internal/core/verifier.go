// Package core implements the Armus runtime: a phaser library for
// goroutines with built-in dynamic deadlock verification (§5 of the paper).
//
// The package plays the role of both layers of the Armus architecture:
//
//   - the application layer — a native Go phaser runtime (generalising X10
//     clocks, Java Phaser / CyclicBarrier / CountDownLatch and join
//     barriers) that produces the blocked status of every task, and
//   - the verification layer — the resource-dependency state and the search
//     of its incremental index for a Wait-For-Graph cycle.
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
	"armus/internal/engine"
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
	period time.Duration
	clock  clock.Clock

	// mu serialises every call into eng, and eng is the only writer of
	// the state: the avoidance gate and the other modes' block inserts, a
	// third party's refresh of a parked task, a resume, a phaser's release
	// of its waiters, and every verdict. A block takes p.mu → t.mu → mu →
	// the state's lock, once each, and a release p.mu → mu → the state's, so
	// nothing lands between building a status and writing it. lastErr
	// wraps eng's verdict lastCyc, so an unchanged state answers with the
	// same *DeadlockError; deadlocks counts the refused blocks and the
	// verdicts that found a deadlock, parks the admitted blocks.
	mu        sync.Mutex
	eng       *engine.Engine
	lastCyc   *deps.Cycle
	lastErr   *DeadlockError
	deadlocks int64
	parks     int64
	offParks  atomic.Int64 // ModeOff's parks, which take no mu

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

	detectStop chan struct{}
	detectDone chan struct{}
	closeOnce  sync.Once
}

// Option configures a Verifier.
type Option func(*Verifier)

// WithMode selects the verification mode (default ModeDetect).
func WithMode(m Mode) Option { return func(v *Verifier) { v.mode = m } }

// WithPeriod sets the detection-mode scan period (default DefaultPeriod).
func WithPeriod(d time.Duration) Option { return func(v *Verifier) { v.period = d } }

// WithClock injects the clock driving the detection loop (default the real
// time.Ticker clock). Tests pass a *clock.Fake and step the detector
// deterministically instead of sleeping through scan periods.
func WithClock(c clock.Clock) Option { return func(v *Verifier) { v.clock = c } }

// WithOnDeadlock installs the deadlock report handler; the default logs the
// report. In detection mode the detector goroutine runs it. In avoidance
// mode a refused block is the blocking call's *DeadlockError, not a report:
// the handler runs for a deadlock found when a third party's Register (or
// Deregister) changes the registrations of a task already blocked — which
// no gate sees — on that caller's goroutine, before the call returns. No
// phaser, task or verifier lock is held while it runs, so it may call back
// into the runtime. Observe and off modes never report.
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
		mode:   ModeDetect,
		period: DefaultPeriod,
		clock:  clock.Real{},
		names:  make(map[deps.TaskID]string),
	}
	for _, o := range opts {
		o(v)
	}
	v.eng = engine.New(v.mode == ModeAvoid)
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

// State exposes the resource-dependency state (used by the distributed
// layer to publish local blocked statuses).
func (v *Verifier) State() *deps.State { return v.eng.State() }

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

// detectLoop is the paper's detection mode: ask for a verdict every period
// and report a deadlock via the handler. The engine answers an unchanged
// state from its cache, so a given stuck state is reported once.
func (v *Verifier) detectLoop() {
	defer close(v.detectDone)
	ticker := v.clock.NewTicker(v.period)
	defer ticker.Stop()
	var reported *DeadlockError
	for {
		select {
		case <-v.detectStop:
			return
		case <-ticker.C():
		}
		if e := v.CheckNow(); e != nil && e != reported {
			reported = e
			v.traceReported(e.Cycle)
			v.onDeadlock(e)
		}
	}
}

// CheckNow runs one synchronous deadlock check and returns a *DeadlockError
// describing the deadlock, or nil. It is safe from any goroutine. Repeated
// calls on an unchanged state return the same *DeadlockError instance
// without re-analysing — or allocating — anything.
func (v *Verifier) CheckNow() *DeadlockError {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.verdictLocked()
}

// verdictLocked asks the engine for its verdict and counts a deadlock it
// has not answered before. Caller holds v.mu.
func (v *Verifier) verdictLocked() *DeadlockError {
	if cyc := v.eng.Check(); cyc != v.lastCyc {
		v.lastCyc, v.lastErr = cyc, nil
		if cyc != nil {
			v.lastErr = v.newDeadlockError(cyc)
			v.deadlocks++
		}
	}
	return v.lastErr
}

// block publishes the status of a task about to park. In avoidance mode it
// is the gate: a block that would close a cycle through b.Task is refused,
// left out of the state, and its cycle returned. Caller holds the task's mu.
func (v *Verifier) block(b deps.Blocked) *deps.Cycle {
	v.mu.Lock()
	defer v.mu.Unlock()
	if cyc := v.eng.Block(b); cyc != nil {
		v.deadlocks++
		v.traceRejected(b, cyc)
		return cyc
	}
	v.parks++
	v.traceBlock(b)
	return nil
}

// unblock removes the status of a task that resumed.
func (v *Verifier) unblock(t deps.TaskID) { v.unblockAll([]deps.TaskID{t}) }

// unblockAll removes the statuses of tasks that resumed, or that a phaser's
// release freed, in one section. The trace records an Unblock per task under
// the same lock as a refresh's Block, so the two stay in order.
func (v *Verifier) unblockAll(ts []deps.TaskID) {
	v.mu.Lock()
	v.eng.UnblockAll(ts)
	for _, t := range ts {
		v.traceUnblock(t)
	}
	v.mu.Unlock()
}

// refresh re-publishes the registrations of a task that parked, after a
// third party changed them, and reports whether it still holds its status
// (one that resumed is left alone). No gate sees that write, so in
// avoidance mode the state is checked here, and a deadlock it closed is
// returned for the caller to report once it holds no lock.
func (v *Verifier) refresh(b deps.Blocked) (*DeadlockError, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.eng.Reregister(b.Task, b.Regs) {
		return nil, false
	}
	v.traceBlock(b)
	if v.mode != ModeAvoid {
		return nil, true
	}
	e := v.verdictLocked()
	if e != nil {
		v.traceReported(e.Cycle)
	}
	return e, true
}

// report delivers a deadlock found by a refresh. Callers hold no lock.
func (v *Verifier) report(e *DeadlockError) {
	if e != nil {
		v.onDeadlock(e)
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

// DeadlockError reports a barrier deadlock: the tasks on the Wait-For-Graph
// cycle and the synchronisation events they await.
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

// Stats is a point-in-time copy of the verifier's counters, used by the
// tests and the repository benchmark's verifier rung.
type Stats struct {
	Checks     int64 // cycle searches the engine ran: gates and verdicts
	WFGBuilds  int64 // always 0: no verdict path builds a graph
	SGBuilds   int64 // always 0: no verdict path builds a graph
	TotalEdges int64 // sum of the WFG edges the searches examined
	MaxEdges   int64 // most edges one search examined
	Deadlocks  int64 // deadlocks found
	Blocks     int64 // blocking operations that actually parked
}

// AvgEdges returns the mean number of edges examined per search.
func (s Stats) AvgEdges() float64 {
	if s.Checks == 0 {
		return 0
	}
	return float64(s.TotalEdges) / float64(s.Checks)
}

// Stats returns a snapshot of the verifier's counters.
func (v *Verifier) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	es := v.eng.Stats()
	return Stats{Checks: es.Searches, TotalEdges: es.Edges, MaxEdges: es.MaxEdges,
		Deadlocks: v.deadlocks, Blocks: v.parks + v.offParks.Load()}
}
