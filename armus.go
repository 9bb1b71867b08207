package armus

import (
	"io"
	"time"

	"armus/internal/accum"
	"armus/internal/barrier"
	"armus/internal/clock"
	"armus/internal/clocked"
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/dist"
	"armus/internal/store"
	"armus/internal/trace"
)

// Core runtime types (see internal/core).
type (
	// Verifier owns the resource-dependency state of one site, checks it
	// for deadlocks, and mints tasks and phasers.
	Verifier = core.Verifier
	// Task is the unit of execution the verifier reasons about; bind one
	// per goroutine (Verifier.Go does this automatically).
	Task = core.Task
	// Phaser is the general barrier: a map from member tasks to local
	// phases with dynamic membership and split-phase synchronisation.
	Phaser = core.Phaser
	// Mode selects off / detect / avoid / observe verification.
	Mode = core.Mode
	// Option configures New.
	Option = core.Option
	// Stats exposes the verifier's counters (checks, edges, deadlocks).
	Stats = core.Stats
	// DeadlockError reports a barrier deadlock: the tasks and events on
	// the dependency cycle.
	DeadlockError = core.DeadlockError
	// RegMode is the HJ registration mode of a phaser member
	// (sig-wait / signal-only / wait-only).
	RegMode = core.RegMode
)

// HJ registration modes (Phaser.RegisterMode).
const (
	// SigWait members signal and wait — classic barrier parties.
	SigWait = core.SigWait
	// SignalOnly members signal but never wait (producers).
	SignalOnly = core.SignalOnly
	// WaitOnly members wait but never gate or impede (consumers).
	WaitOnly = core.WaitOnly
)

// Verification modes.
const (
	// ModeOff disables verification (plain phaser library).
	ModeOff = core.ModeOff
	// ModeDetect runs a periodic background deadlock detector.
	ModeDetect = core.ModeDetect
	// ModeAvoid checks before blocking and errors instead of deadlocking.
	ModeAvoid = core.ModeAvoid
	// ModeObserve records blocked statuses for a distributed checker.
	ModeObserve = core.ModeObserve
)

// Analysis types (see internal/deps).
type (
	// Model names the graph representation a Cycle was found in.
	Model = deps.Model
	// TaskID names a task in analyses and reports.
	TaskID = deps.TaskID
	// PhaserID names a phaser in analyses and reports.
	PhaserID = deps.PhaserID
	// Resource is a synchronisation event: a (phaser, phase) pair.
	Resource = deps.Resource
	// Reg is a task's registration with a phaser at a local phase.
	Reg = deps.Reg
	// Blocked is one task's blocked status: awaited events plus its
	// registration vector.
	Blocked = deps.Blocked
	// Cycle is a deadlock cycle translated back to tasks and events.
	Cycle = deps.Cycle
)

// ModelWFG is the Model of every reported Cycle: the tasks on a Wait-For
// Graph cycle and the events they await.
const ModelWFG = deps.ModelWFG

// Errors returned by phaser operations.
var (
	// ErrNotRegistered reports use of a phaser by a non-member.
	ErrNotRegistered = core.ErrNotRegistered
	// ErrAlreadyRegistered reports a duplicate registration.
	ErrAlreadyRegistered = core.ErrAlreadyRegistered
	// ErrSignalOnlyWait reports a wait by a signal-only member.
	ErrSignalOnlyWait = core.ErrSignalOnlyWait
)

// New creates a verifier. With no options it runs in detection mode with a
// 100 ms scan period.
func New(opts ...Option) *Verifier { return core.New(opts...) }

// WithMode selects the verification mode.
func WithMode(m Mode) Option { return core.WithMode(m) }

// WithPeriod sets the detection-mode scan period.
func WithPeriod(d time.Duration) Option { return core.WithPeriod(d) }

// WithOnDeadlock installs the detection-mode report handler.
func WithOnDeadlock(f func(*DeadlockError)) Option { return core.WithOnDeadlock(f) }

// ClockSource is the injectable ticker source driving the periodic
// verification loops (not to be confused with Clock, the X10 barrier);
// FakeClock is the manually stepped test implementation.
type (
	ClockSource = clock.Clock
	FakeClock   = clock.Fake
)

// NewFakeClock returns a manually driven clock source: each Tick delivers
// exactly one scan/publish round to every loop using it, synchronously, so
// tests step the detector instead of sleeping through periods.
func NewFakeClock() *FakeClock { return clock.NewFake() }

// WithClock injects the clock source driving the detection loop.
func WithClock(c ClockSource) Option { return core.WithClock(c) }

// WithIDBase offsets all minted IDs (for distributed sites).
func WithIDBase(base int64) Option { return core.WithIDBase(base) }

// TraceRecorder accumulates a verifier's transition trace (see
// internal/trace): every register / arrive / drop / block / unblock and
// every delivered verdict, replayable through `armus-trace replay`.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns an empty trace recorder for WithTraceRecorder.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// WithTraceWriter records the verifier's full transition trace and writes
// it, in the armus-trace binary format, to w when the verifier is closed.
// Record once, then replay the execution verdict-for-verdict through any
// verification pipeline:
//
//	armus-trace replay -pipeline all run.trace
func WithTraceWriter(w io.Writer) Option { return core.WithTraceWriter(w) }

// WithTraceRecorder is WithTraceWriter with caller-owned storage: the
// recorder can be snapshotted (and encoded) at any point during the run.
func WithTraceRecorder(r *TraceRecorder) Option { return core.WithTraceRecorder(r) }

// Derived barrier abstractions (see internal/barrier).
type (
	// Clock is an X10 clock: lockstep advance with dynamic membership.
	Clock = barrier.Clock
	// CyclicBarrier is a reusable barrier for an explicit party group.
	CyclicBarrier = barrier.CyclicBarrier
	// Finish is the X10 join barrier: wait for all spawned tasks.
	Finish = barrier.Finish
	// CountDownLatch gates waiters until every counter has counted down.
	CountDownLatch = barrier.CountDownLatch
)

// NewClock creates a clock with creator registered.
func NewClock(v *Verifier, creator *Task) *Clock { return barrier.NewClock(v, creator) }

// NewCyclicBarrier creates a barrier owned (and initially joined) by owner.
func NewCyclicBarrier(v *Verifier, owner *Task) *CyclicBarrier {
	return barrier.NewCyclicBarrier(v, owner)
}

// NewFinish opens a finish (join) scope for parent.
func NewFinish(v *Verifier, parent *Task) *Finish { return barrier.NewFinish(v, parent) }

// NewCountDownLatch creates a latch bootstrapped by owner.
func NewCountDownLatch(v *Verifier, owner *Task) *CountDownLatch {
	return barrier.NewCountDownLatch(v, owner)
}

// ClockedVar is a clocked variable: a memory cell whose reads and writes
// are mediated by its own clock (Atkins et al.), so phases never observe
// torn or racy values.
type ClockedVar[T any] = clocked.Var[T]

// NewClockedVar creates a clocked variable holding init, with creator
// registered on its clock.
func NewClockedVar[T any](v *Verifier, creator *Task, init T) *ClockedVar[T] {
	return clocked.New(v, creator, init)
}

// Accumulator is a phaser accumulator (Shirako et al.): per-phase parallel
// reduction synchronised by a phaser, with dynamic membership.
type Accumulator[T any] = accum.Accumulator[T]

// NewAccumulator creates an accumulator under the associative-commutative
// operator op, with creator registered on its phaser.
func NewAccumulator[T any](v *Verifier, creator *Task, op func(a, b T) T) *Accumulator[T] {
	return accum.New(v, creator, op)
}

// Distributed verification (see internal/dist and internal/store).
type (
	// Site is one participant of a distributed program: it publishes its
	// local blocked statuses and checks the merged global view.
	Site = dist.Site
	// SiteOption configures NewSite.
	SiteOption = dist.Option
	// SiteStats exposes a site's publish/check/error counters.
	SiteStats = dist.SiteStats
	// StoreServer is the shared in-memory data store (the Redis stand-in).
	StoreServer = store.Server
	// StoreClient is a fault-tolerant (reconnecting) store client.
	StoreClient = store.Client
)

// NewSite creates site id connected to the store at addr.
func NewSite(id int, addr string, opts ...SiteOption) *Site {
	return dist.NewSite(id, addr, opts...)
}

// WithSitePeriod sets the site's publish/check period (default 200 ms).
func WithSitePeriod(d time.Duration) SiteOption { return dist.WithPeriod(d) }

// WithSiteOnDeadlock installs the site's deadlock report handler.
func WithSiteOnDeadlock(f func(*DeadlockError)) SiteOption {
	return dist.WithOnDeadlock(f)
}

// WithSiteClock injects the clock source driving the site's publish/check
// loop.
func WithSiteClock(c ClockSource) SiteOption { return dist.WithClock(c) }

// NewStoreServer starts a store server on addr (e.g. "127.0.0.1:0").
func NewStoreServer(addr string) (*StoreServer, error) { return store.NewServer(addr) }

// DialStore creates a lazy, reconnecting client for the store at addr.
func DialStore(addr string) *StoreClient { return store.Dial(addr) }
