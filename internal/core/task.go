package core

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"armus/internal/deps"
)

// Task is the unit of execution the verifier reasons about. A Task is
// normally bound to one goroutine (use Verifier.Go), but the binding is by
// convention: the runtime only requires that a task's blocking operations
// are not issued concurrently with each other.
//
// A task carries its registration vector — for each phaser it is registered
// with, its local phase. This vector is exactly the information a blocked
// task contributes to the analysis (§2.2, "event-based concurrency
// dependencies"): the task's blocked status is a pure function of its own
// vector, independent of any other task.
type Task struct {
	id deps.TaskID
	v  *Verifier

	// mu is held by a block from building its status to writing it, and by
	// a third party's Register or Deregister from changing regs to
	// refreshing the status, so neither lands inside the other.
	mu sync.Mutex
	// regs is the registration vector, in registration order: a slice, so
	// that assembling a blocked status is a loop and consecutive statuses
	// list the phasers in the same order (deps.State updates those in place).
	regs []*registration
	// parked is set by an admitted block and dropped by the first refresh
	// that finds the task resumed (a resume does not take mu). While it is
	// clear, a membership change does not take the verifier's lock.
	parked bool
	// waitsBuf/regsBuf back the status built on every block and refresh,
	// under mu. The state copies them, so the block path is allocation-free
	// once they are warm.
	waitsBuf []deps.Resource
	regsBuf  []deps.Reg
}

// registration is the shared per-(task, phaser) record. The phase is
// written under the phaser's lock and read via atomic load when a blocked
// status is assembled.
type registration struct {
	phaser *Phaser
	mode   RegMode
	phase  atomic.Int64
}

// NewTask mints a task. The name is used in deadlock reports.
func (v *Verifier) NewTask(name string) *Task {
	id := deps.TaskID(v.taskBase + v.nextTask.Add(1))
	if name != "" {
		v.namesMu.Lock()
		v.names[id] = name
		v.namesMu.Unlock()
	}
	return &Task{id: id, v: v}
}

// Go spawns fn on a new goroutine bound to a fresh task. When fn returns,
// the task is terminated: it deregisters from every phaser it is still
// registered with, exactly like X10/HJ task termination (§7, "deadlock
// avoidance": deregistering on termination mitigates missing-participant
// deadlocks). The returned channel closes when fn has returned and the
// task is terminated.
func (v *Verifier) Go(name string, fn func(*Task)) <-chan struct{} {
	t := v.NewTask(name)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer t.Terminate()
		fn(t)
	}()
	return done
}

// ID returns the task's verifier-unique identifier.
func (t *Task) ID() deps.TaskID { return t.id }

// Name returns the task's report name ("" if unnamed).
func (t *Task) Name() string {
	t.v.namesMu.RLock()
	defer t.v.namesMu.RUnlock()
	return t.v.names[t.id]
}

// Terminate deregisters the task from every phaser it is still registered
// with. It is idempotent and is called automatically by Verifier.Go.
func (t *Task) Terminate() {
	for {
		t.mu.Lock()
		if len(t.regs) == 0 {
			t.mu.Unlock()
			return
		}
		p := t.regs[len(t.regs)-1].phaser
		t.mu.Unlock()
		// Deregister acquires p.mu then t.mu; we must not hold t.mu here.
		_ = p.Deregister(t)
	}
}

// Registrations returns the task's current registration vector, sorted by
// phaser ID: the "impedes" half of its blocked status.
func (t *Task) Registrations() []deps.Reg {
	t.mu.Lock()
	out := t.rawRegsInto(make([]deps.Reg, 0, len(t.regs)))
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Phaser < out[j].Phaser })
	return out
}

// dropRegLocked removes r from the registration vector, keeping the order
// of the rest. Caller holds t.mu.
func (t *Task) dropRegLocked(r *registration) {
	if i := slices.Index(t.regs, r); i >= 0 {
		t.regs = slices.Delete(t.regs, i, i+1)
	}
}

// rawRegsInto appends the registration vector to out, unsorted — the
// analysis needs no order, and this runs on every block. Wait-only
// registrations are excluded: a wait-only task never gates an await, so it
// impedes nothing (this is precisely the per-participant knowledge §5.3
// says the original phaser semantics need).
func (t *Task) rawRegsInto(out []deps.Reg) []deps.Reg {
	for _, r := range t.regs {
		if r.mode == WaitOnly {
			continue
		}
		out = append(out, deps.Reg{Phaser: r.phaser.id, Phase: r.phase.Load()})
	}
	return out
}

// block publishes the task's blocked status for one awaited event — in
// avoidance mode through the gate — and returns the cycle of a refused
// block. The status is built and written under t.mu, so a third party's
// Register or Deregister of the task lands wholly before it or after it,
// as a refresh of the status it wrote.
func (t *Task) block(r deps.Resource) *deps.Cycle {
	t.mu.Lock()
	t.waitsBuf = append(t.waitsBuf[:0], r)
	t.regsBuf = t.rawRegsInto(t.regsBuf[:0])
	cyc := t.v.block(deps.Blocked{Task: t.id, WaitsFor: t.waitsBuf, Regs: t.regsBuf})
	t.parked = cyc == nil
	t.mu.Unlock()
	return cyc
}

// refreshLocked re-publishes the registrations of a parked task after a
// third party changed them, and returns the deadlock the new status closed
// in avoidance mode, which the caller reports after letting go of its
// locks. Caller holds t.mu.
func (t *Task) refreshLocked() *DeadlockError {
	if !t.parked {
		return nil
	}
	t.regsBuf = t.rawRegsInto(t.regsBuf[:0])
	rep, parked := t.v.refresh(deps.Blocked{Task: t.id, WaitsFor: t.waitsBuf, Regs: t.regsBuf})
	t.parked = parked
	return rep
}
