package sim

import (
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"armus/internal/clock"
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/sim/oracle"
	"armus/internal/trace"
)

// RunMode selects what the runner drives alongside the abstract machine.
type RunMode int

const (
	// RunModel executes the program on the abstract machine only — the
	// input producer for the distributed differential (DistChecker).
	RunModel RunMode = iota
	// RunAvoid drives a real avoidance-mode verifier in lockstep: the gate
	// must reject a block exactly when the oracle finds a cycle through
	// the blocking task, a deadlock a third-party Register closes must be
	// reported during that step, and CheckNow must match the oracle every
	// step.
	RunAvoid
	// RunDetect drives a real detection-mode verifier whose scan loop is
	// stepped by a fake clock: the detector must report at the step a
	// deadlock appears and stay silent while the oracle says clean.
	RunDetect
)

func (m RunMode) String() string {
	switch m {
	case RunModel:
		return "model"
	case RunAvoid:
		return "avoid"
	case RunDetect:
		return "detect"
	default:
		return fmt.Sprintf("runmode(%d)", int(m))
	}
}

// watchdog bounds every wait on the real runtime. It fires only when the
// runtime genuinely diverges from the model (e.g. a task the model says
// must wake stays parked), turning a would-be hang into a reported,
// reproducible divergence.
const watchdog = 10 * time.Second

// Result summarises one explored schedule.
type Result struct {
	Schedule     []int // task picked at each step
	Deadlocked   bool  // oracle verdict on the final state
	DeadlockStep int   // first step the oracle called deadlocked (-1 never)
	Stuck        []int // task indices in the final oracle stuck set
	FinalBlocked []deps.Blocked
	Rejections   int // avoidance-gate rejections (RunAvoid)
	Reports      int // deadlock reports delivered by the runtime
	// Trace is the recorded verifier trace of the run (nil in model mode,
	// which drives no real verifier). cmd/armus-trace record -sim uses it
	// to mint corpus entries from interesting seeds.
	Trace *trace.Trace
}

// Run generates cfg's program and executes one seeded schedule of it in
// the given mode. The returned error, if any, is a *Divergence carrying
// the (seed, schedule) pair and a cmd/armus-sim reproduction line.
func Run(cfg Config, mode RunMode) (*Result, error) {
	cfg = cfg.withDefaults()
	return RunProgram(Generate(cfg), cfg, mode)
}

// driver executes one schedule, keeping the abstract machine and (in
// runtime modes) a real verifier in lockstep. The machine is the source of
// truth for scheduling: it predicts whether each operation errors, blocks,
// wakes other tasks, or (avoidance) must be rejected, and every prediction
// is asserted against the runtime before the next operation runs — which
// is exactly what makes the interleaving deterministic.
type driver struct {
	cfg   Config
	mode  RunMode
	prog  *Program
	m     *machine
	sched []int

	v       *core.Verifier
	fc      *clock.Fake
	rec     *trace.Recorder
	tasks   []*core.Task
	phasers []*core.Phaser
	idxOf   map[deps.TaskID]int
	pending map[int]chan error
	reports chan *core.DeadlockError

	res          *Result
	deadlockSeen bool
}

// RunProgram is Run for a pre-generated program (the CLI uses it to replay
// a printed seed with verbose tracing around it).
func RunProgram(prog *Program, cfg Config, mode RunMode) (*Result, error) {
	cfg = cfg.withDefaults()
	d := &driver{
		cfg:     cfg,
		mode:    mode,
		prog:    prog,
		m:       newMachine(prog),
		pending: map[int]chan error{},
		res:     &Result{DeadlockStep: -1},
	}
	if mode != RunModel {
		if err := d.startRuntime(); err != nil {
			// Partial start: the verifier (and, in RunDetect, its scan
			// goroutine) already exists and must not leak.
			d.cleanup()
			return nil, err
		}
		defer d.cleanup()
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, schedStream))
	for {
		runnable := d.m.runnable()
		if len(runnable) == 0 {
			break
		}
		t := runnable[rng.IntN(len(runnable))]
		d.sched = append(d.sched, t)
		if div := d.step(t); div != nil {
			d.res.Schedule = d.sched
			if d.rec != nil {
				d.res.Trace = d.rec.Trace()
			}
			d.saveTrace(div)
			return d.res, div
		}
	}
	r, err := d.finish()
	if d.rec != nil {
		r.Trace = d.rec.Trace()
	}
	var div *Divergence
	if errors.As(err, &div) {
		d.saveTrace(div)
	}
	return r, err
}

// saveTrace writes the recorded verifier trace of a diverging run to
// cfg.TraceDir (default: the OS temp dir) and stamps its path into the
// divergence report. The trace is prefix-minimized: recording stops at the
// failing step, so the file holds exactly the transitions leading up to
// the divergence (the deferred cleanup's terminations happen after the
// snapshot). Trace I/O must never mask the divergence itself, so failures
// here are logged, not returned — the (seed, schedule) repro line still
// stands; only the trace: lines go missing from the report.
func (d *driver) saveTrace(div *Divergence) {
	if d.rec == nil || div == nil {
		return
	}
	dir := d.cfg.TraceDir
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, fmt.Sprintf("armus-sim-seed%d-%s-*.trace", d.cfg.Seed, d.mode))
	if err != nil {
		log.Printf("sim: divergence trace not saved: %v", err)
		return
	}
	if err := trace.Encode(f, d.rec.Trace()); err != nil {
		f.Close()
		os.Remove(f.Name())
		log.Printf("sim: divergence trace not saved: %v", err)
		return
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		log.Printf("sim: divergence trace not saved: %v", err)
		return
	}
	div.TracePath = f.Name()
}

// startRuntime creates the verifier, tasks and phasers and applies the
// program's initial memberships through a transient setup task.
func (d *driver) startRuntime() error {
	d.reports = make(chan *core.DeadlockError, 1024)
	d.rec = trace.NewRecorder()
	d.rec.SetLabel(fmt.Sprintf("sim seed %d (%s, %d tasks, %d phasers, %d ops)",
		d.cfg.Seed, d.mode, d.cfg.Tasks, d.cfg.Phasers, d.cfg.Ops))
	opts := []core.Option{core.WithTraceRecorder(d.rec),
		core.WithOnDeadlock(func(e *core.DeadlockError) {
			select {
			case d.reports <- e:
			default:
			}
		})}
	switch d.mode {
	case RunAvoid:
		opts = append(opts, core.WithMode(core.ModeAvoid))
	case RunDetect:
		d.fc = clock.NewFake()
		opts = append(opts, core.WithMode(core.ModeDetect),
			core.WithClock(d.fc), core.WithPeriod(time.Hour))
	}
	d.v = core.New(opts...)
	d.tasks = make([]*core.Task, d.prog.Tasks)
	d.idxOf = map[deps.TaskID]int{}
	for i := range d.tasks {
		d.tasks[i] = d.v.NewTask(fmt.Sprintf("t%d", i))
		d.idxOf[d.tasks[i].ID()] = i
	}
	d.phasers = make([]*core.Phaser, d.prog.Phasers)
	setup := d.v.NewTask("setup")
	for q := range d.phasers {
		ph := d.v.NewPhaser(setup)
		for _, mem := range d.prog.Init[q] {
			if err := ph.RegisterMode(setup, d.tasks[mem.Task], mem.Mode); err != nil {
				return fmt.Errorf("sim: setup register: %w", err)
			}
		}
		if err := ph.Deregister(setup); err != nil {
			return fmt.Errorf("sim: setup deregister: %w", err)
		}
		d.phasers[q] = ph
	}
	return nil
}

// cleanup unsticks and releases everything: terminating every task
// deregisters all memberships, which satisfies every remaining await.
func (d *driver) cleanup() {
	for _, t := range d.tasks {
		t.Terminate()
	}
	for _, ch := range d.pending {
		select {
		case <-ch:
		case <-time.After(watchdog):
		}
	}
	d.v.Close()
}

func (d *driver) fail(format string, args ...any) *Divergence {
	return &Divergence{
		Cfg:      d.cfg,
		Mode:     d.mode.String(),
		Step:     len(d.sched) - 1,
		Schedule: append([]int(nil), d.sched...),
		Detail:   fmt.Sprintf(format, args...),
	}
}

// step executes task t's next operation on the machine and, in lockstep,
// on the runtime, then runs the per-step differential assertions.
func (d *driver) step(t int) *Divergence {
	op := d.prog.Ops[t][d.m.pc[t]]
	d.m.pc[t]++
	var div *Divergence
	switch op.Kind {
	case OpArrive:
		div = d.doArrive(t, op)
	case OpRegister:
		div = d.doRegister(t, op)
	case OpDeregister:
		div = d.doDeregister(t, op)
	case OpChangeMode:
		div = d.doChangeMode(t, op)
	default:
		div = d.doBlockingOp(t, op)
	}
	if div != nil {
		return div
	}
	return d.postStep()
}

// callPrompt runs a real call the model says cannot park; the watchdog
// turns an unexpected park into a divergence instead of a hang.
func (d *driver) callPrompt(what string, fn func() error) (error, *Divergence) {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err, nil
	case <-time.After(watchdog):
		return nil, d.fail("%s did not return, model says it cannot block", what)
	}
}

// doSimple runs a non-parking real call and checks its outcome against
// the model's expectation (nil or a sentinel error).
func (d *driver) doSimple(what string, want error, fn func() error) *Divergence {
	if d.v == nil {
		return nil
	}
	got, div := d.callPrompt(what, fn)
	if div != nil {
		return div
	}
	if want == nil && got == nil {
		return nil
	}
	if want != nil && errors.Is(got, want) {
		return nil
	}
	return d.fail("%s returned %v, model expects %v", what, got, want)
}

func (d *driver) doArrive(t int, op Op) *Divergence {
	q := op.Phaser
	what := fmt.Sprintf("t%d arrive(p%d)", t, q)
	reg := d.m.members[q][t]
	if reg == nil {
		return d.doSimple(what, core.ErrNotRegistered, func() error {
			_, err := d.phasers[q].Arrive(d.tasks[t])
			return err
		})
	}
	reg.phase++
	want := reg.phase
	if div := d.doSimple(what, nil, func() error {
		n, err := d.phasers[q].Arrive(d.tasks[t])
		if err == nil && n != want {
			return fmt.Errorf("arrived at phase %d, model says %d", n, want)
		}
		return err
	}); div != nil {
		return div
	}
	return d.settle()
}

func (d *driver) doRegister(t int, op Op) *Divergence {
	q, tgt := op.Phaser, op.Target
	what := fmt.Sprintf("t%d %v", t, op)
	var want error
	switch reg := d.m.members[q][t]; {
	case reg == nil:
		want = core.ErrNotRegistered
	case d.m.members[q][tgt] != nil:
		want = core.ErrAlreadyRegistered
	default:
		// The newcomer inherits the registrar's phase. Registering a
		// currently-blocked target is legal and is the third-party
		// status-refresh path; the oracle sees the new registration
		// through the model on the next assertion.
		d.m.members[q][tgt] = &mreg{phase: reg.phase, mode: op.Mode}
	}
	return d.doSimple(what, want, func() error {
		return d.phasers[q].RegisterMode(d.tasks[t], d.tasks[tgt], op.Mode)
	})
}

func (d *driver) doDeregister(t int, op Op) *Divergence {
	q := op.Phaser
	what := fmt.Sprintf("t%d drop(p%d)", t, q)
	if d.m.members[q][t] == nil {
		return d.doSimple(what, core.ErrNotRegistered, func() error {
			return d.phasers[q].Deregister(d.tasks[t])
		})
	}
	delete(d.m.members[q], t)
	if div := d.doSimple(what, nil, func() error {
		return d.phasers[q].Deregister(d.tasks[t])
	}); div != nil {
		return div
	}
	return d.settle()
}

// doChangeMode re-registers t under a new mode: drop, settle any waiters
// the drop released, then re-register through the lowest-indexed remaining
// member (skipped if none remains — the runtime's API offers no registrar
// then either).
func (d *driver) doChangeMode(t int, op Op) *Divergence {
	q := op.Phaser
	what := fmt.Sprintf("t%d %v", t, op)
	if d.m.members[q][t] == nil {
		return d.doSimple(what, core.ErrNotRegistered, func() error {
			return d.phasers[q].Deregister(d.tasks[t])
		})
	}
	delete(d.m.members[q], t)
	if div := d.doSimple(what+" [drop]", nil, func() error {
		return d.phasers[q].Deregister(d.tasks[t])
	}); div != nil {
		return div
	}
	if div := d.settle(); div != nil {
		return div
	}
	registrar := -1
	for cand := range d.m.members[q] {
		if registrar == -1 || cand < registrar {
			registrar = cand
		}
	}
	if registrar == -1 {
		return nil
	}
	d.m.members[q][t] = &mreg{phase: d.m.members[q][registrar].phase, mode: op.Mode}
	return d.doSimple(what+" [rereg]", nil, func() error {
		return d.phasers[q].RegisterMode(d.tasks[registrar], d.tasks[t], op.Mode)
	})
}

// doBlockingOp executes the awaiting operations (advance / await /
// awaitPhase): the model decides between error, immediate satisfaction,
// avoidance rejection, and parking, and the runtime must take the same
// branch.
func (d *driver) doBlockingOp(t int, op Op) *Divergence {
	q := op.Phaser
	what := fmt.Sprintf("t%d %v", t, op)
	reg := d.m.members[q][t]
	var want error
	switch op.Kind {
	case OpAdvance, OpAwaitAdvance:
		if reg == nil {
			want = core.ErrNotRegistered
		} else if reg.mode == core.SignalOnly {
			want = core.ErrSignalOnlyWait
		}
	case OpAwaitPhase:
		if reg != nil && reg.mode == core.SignalOnly {
			want = core.ErrSignalOnlyWait
		}
	}
	if want != nil {
		return d.doSimple(what, want, func() error { return d.realBlockingCall(t, op, 0) })
	}
	var n int64
	switch op.Kind {
	case OpAdvance:
		reg.phase++ // the arrive half happens even if the await then blocks
		n = reg.phase
	case OpAwaitAdvance:
		n = reg.phase
	case OpAwaitPhase:
		if reg != nil {
			n = reg.phase + op.Delta
		} else {
			n = op.Delta
		}
	}
	if d.m.satisfied(q, n) {
		if div := d.doSimple(what, nil, func() error { return d.realBlockingCall(t, op, n) }); div != nil {
			return div
		}
		return d.settle()
	}
	aw := await{phaser: q, phase: n}
	if d.mode == RunAvoid {
		tentative := d.m.oracleState(t, &aw)
		if oracle.CycleThrough(tentative, int64(t)) {
			return d.doRejectedBlock(t, op, n, what, tentative)
		}
	}
	// Accepted block (or no gate): park the real call on its own
	// goroutine, release anything the arrive half satisfied, then hold
	// until the runtime has published t's blocked status — without that
	// barrier the next scheduled operation could race the publication and
	// the run would stop being a pure function of the seed.
	d.m.waiting[t] = aw
	if d.v == nil {
		return d.settle()
	}
	ch := make(chan error, 1)
	d.pending[t] = ch
	go func() { ch <- d.realBlockingCall(t, op, n) }()
	if div := d.settle(); div != nil {
		return div
	}
	return d.awaitBlockedRecord(t, what, ch)
}

// doRejectedBlock handles a block the oracle says the avoidance gate must
// refuse: the real call returns *core.DeadlockError, and the runtime's
// recovery (deregistering the failing task from the phaser) is mirrored.
func (d *driver) doRejectedBlock(t int, op Op, n int64, what string, tentative *oracle.State) *Divergence {
	d.res.Rejections++
	delete(d.m.members[op.Phaser], t) // avoidance recovery (no-op for observers)
	if d.v != nil {
		got, div := d.callPrompt(what, func() error { return d.realBlockingCall(t, op, n) })
		if div != nil {
			return div
		}
		var de *core.DeadlockError
		if !errors.As(got, &de) {
			return d.fail("%s returned %v, oracle finds a cycle through t%d so the gate must reject",
				what, got, t)
		}
		// The reported cycle describes the tentative state (with t's block
		// inserted): validate it against that state's stuck set.
		if div := d.validateCycle(de, stuckSetOf(tentative)); div != nil {
			return div
		}
	}
	return d.settle()
}

func (d *driver) realBlockingCall(t int, op Op, n int64) error {
	ph := d.phasers[op.Phaser]
	task := d.tasks[t]
	switch op.Kind {
	case OpAdvance:
		return ph.Advance(task)
	case OpAwaitAdvance:
		return ph.AwaitAdvance(task)
	default:
		return ph.AwaitPhase(task, n)
	}
}

// awaitBlockedRecord spins (yielding) until the runtime has published t's
// blocked status — or the parked call returns, which the model said it
// must not.
func (d *driver) awaitBlockedRecord(t int, what string, ch chan error) *Divergence {
	id := d.tasks[t].ID()
	deadline := time.Now().Add(watchdog)
	var snap []deps.Blocked
	for {
		select {
		case err := <-ch:
			delete(d.pending, t)
			delete(d.m.waiting, t)
			return d.fail("%s returned (%v), model says it parks", what, err)
		default:
		}
		snap = d.v.State().SnapshotInto(snap)
		for i := range snap {
			if snap[i].Task == id {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return d.fail("%s never published a blocked status", what)
		}
		runtime.Gosched()
	}
}

// settle releases every waiter whose await the last mutation satisfied:
// the model computes the wake set, and each corresponding real await must
// complete cleanly before the next operation is scheduled.
func (d *driver) settle() *Divergence {
	for _, w := range d.m.newlySatisfied() {
		delete(d.m.waiting, w)
		if d.v == nil {
			continue
		}
		ch := d.pending[w]
		if ch == nil {
			return d.fail("internal: woken task t%d has no parked operation", w)
		}
		select {
		case err := <-ch:
			delete(d.pending, w)
			if err != nil {
				return d.fail("t%d woke with %v, model expects a clean wake", w, err)
			}
		case <-time.After(watchdog):
			return d.fail("t%d never woke, model says its await is satisfied", w)
		}
	}
	return nil
}

func stuckSetOf(s *oracle.State) map[int]bool {
	set := map[int]bool{}
	for _, t := range oracle.StuckSet(s) {
		set[int(t)] = true
	}
	return set
}

// postStep runs the per-step differential: state parity, report
// validation, the detection-loop protocol, and the CheckNow-vs-oracle
// verdict comparison.
func (d *driver) postStep() *Divergence {
	stuck := oracle.StuckSet(d.m.oracleState(-1, nil))
	verdict := len(stuck) > 0
	if verdict && d.res.DeadlockStep < 0 {
		d.res.DeadlockStep = len(d.sched) - 1
	}
	if d.v == nil {
		return nil
	}
	if div := d.checkParity(); div != nil {
		return div
	}
	if d.mode == RunDetect {
		// Two synchronous ticks: when the second returns, the scan
		// triggered by the first has completed and delivered its reports.
		d.fc.Round()
	}
	stuckSet := map[int]bool{}
	for _, s := range stuck {
		stuckSet[int(s)] = true
	}
	// A deadlock must be reported by the end of the step it appears at: in
	// detection mode by the scan just stepped, in avoidance mode — where
	// only a third party's Register can close one, around tasks already
	// past their gates — by that Register call.
	got, div := d.drainReports(stuckSet)
	if div != nil {
		return div
	}
	if !verdict && got > 0 {
		return d.fail("a deadlock was reported, oracle says the state is clean")
	}
	if verdict && !d.deadlockSeen && got == 0 {
		return d.fail("deadlock appeared (stuck=%v) but the runtime did not report it", stuck)
	}
	if verdict {
		d.deadlockSeen = true
	}
	ce := d.v.CheckNow()
	if (ce != nil) != verdict {
		return d.fail("CheckNow says %v, oracle verdict %v (stuck=%v)", ce, verdict, stuck)
	}
	if ce != nil {
		return d.validateCycle(ce, stuckSet)
	}
	return nil
}

func (d *driver) drainReports(stuckSet map[int]bool) (int, *Divergence) {
	n := 0
	for {
		select {
		case e := <-d.reports:
			n++
			d.res.Reports++
			if div := d.validateCycle(e, stuckSet); div != nil {
				return n, div
			}
		default:
			return n, nil
		}
	}
}

// validateCycle checks that every task a report names is one the oracle
// agrees is stuck.
func (d *driver) validateCycle(e *core.DeadlockError, stuckSet map[int]bool) *Divergence {
	for _, id := range e.Cycle.Tasks {
		idx, ok := d.idxOf[id]
		if !ok {
			return d.fail("report names unknown task %d: %v", id, e)
		}
		if !stuckSet[idx] {
			return d.fail("report includes t%d, which the oracle says is not stuck: %v", idx, e)
		}
	}
	return nil
}

// checkParity compares the full observable runtime state — blocked count,
// memberships, modes, phases — against the machine.
func (d *driver) checkParity() *Divergence {
	if got, want := d.v.State().Len(), len(d.m.waiting); got != want {
		return d.fail("runtime records %d blocked tasks, model has %d", got, want)
	}
	for q, ph := range d.phasers {
		if got, want := ph.NumMembers(), len(d.m.members[q]); got != want {
			return d.fail("p%d has %d members, model has %d", q, got, want)
		}
		for ti, task := range d.tasks {
			phase, ok := ph.Phase(task)
			reg := d.m.members[q][ti]
			if ok != (reg != nil) {
				return d.fail("p%d membership of t%d: runtime %v, model %v", q, ti, ok, reg != nil)
			}
			if reg == nil {
				continue
			}
			if phase != reg.phase {
				return d.fail("p%d phase of t%d: runtime %d, model %d", q, ti, phase, reg.phase)
			}
			if md, _ := ph.Mode(task); md != reg.mode {
				return d.fail("p%d mode of t%d: runtime %v, model %v", q, ti, md, reg.mode)
			}
		}
	}
	return nil
}

// finish runs the end-of-run comparison (with the injected flip, if any)
// and assembles the Result.
func (d *driver) finish() (*Result, error) {
	stuck := oracle.StuckSet(d.m.oracleState(-1, nil))
	d.res.Schedule = d.sched
	d.res.Deadlocked = len(stuck) > 0
	for _, s := range stuck {
		d.res.Stuck = append(d.res.Stuck, int(s))
	}
	d.res.FinalBlocked = d.m.finalBlocked()
	want := d.res.Deadlocked
	if d.cfg.FlipFinalVerdict {
		want = !want
	}
	if d.v != nil {
		if got := d.v.CheckNow() != nil; got != want {
			return d.res, &Divergence{
				Cfg:      d.cfg,
				Mode:     d.mode.String(),
				Step:     -1,
				Schedule: append([]int(nil), d.sched...),
				Detail: fmt.Sprintf("final CheckNow says %v, expected verdict %v (stuck=%v)",
					got, want, d.res.Stuck),
			}
		}
	}
	return d.res, nil
}
