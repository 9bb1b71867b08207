// Package engine is the one session engine: what a server session, a trace
// replay and the SDK's parity mirror all do to a resource-dependency state —
// insert a blocked status (gated or not), clear it, ask "deadlocked now?" —
// written once.
//
// Definition 4.1 of the paper makes a blocked status a pure function of its
// task, so the state IS the set of statuses and those three operations are
// the whole interface. Structural events (register / arrive / drop) never
// reach an engine: a membership change of a blocked task is always followed
// by its status refresh, which does.
//
// An Engine is single-writer: its owner (a session's executor, a replay
// loop) serialises every call.
package engine

import (
	"armus/internal/core"
	"armus/internal/deps"
)

// Engine is a dependency state plus one mode's verdict machinery.
//
// In avoidance mode (core.ModeAvoid) verdicts come from the gate's targeted
// search over the state's incremental index. In every other mode they come
// from an observe-mode core.Verifier's full scan — snapshot, graph build
// under the model, cycle search — cached by state version, so asking again
// about an unchanged state costs a version compare.
type Engine struct {
	st  *deps.State
	sc  deps.CycleScratch // avoidance search scratch
	ver *core.Verifier    // nil in avoidance mode; st is its state otherwise
}

// New returns an empty engine. model selects the graph representation of
// the full scan and is unused in avoidance mode.
func New(mode core.Mode, model deps.Model) *Engine {
	if mode == core.ModeAvoid {
		return &Engine{st: deps.NewState()}
	}
	ver := core.New(core.WithMode(core.ModeObserve), core.WithModel(model))
	return &Engine{st: ver.State(), ver: ver}
}

// Block records (or replaces) the blocked status of b.Task. In avoidance
// mode it is the gate, verbatim the in-process semantics: the status is
// inserted tentatively and, when that closes a cycle through b.Task, taken
// out again — the task is left with no status at all, also when it held an
// admitted one before — and the cycle is returned. In every other mode the
// insert is unconditional and the result nil.
func (e *Engine) Block(b deps.Blocked) *deps.Cycle {
	e.st.SetBlocked(b)
	if e.ver != nil {
		return nil
	}
	cyc, _ := e.st.CycleThrough(b.Task, &e.sc)
	if cyc != nil {
		e.st.Clear(b.Task)
	}
	return cyc
}

// Unblock removes the blocked status of t (the task resumed).
func (e *Engine) Unblock(t deps.TaskID) { e.st.Clear(t) }

// Check is the mode's "deadlocked now?" verdict: a cycle of the current
// state, or nil.
func (e *Engine) Check() *deps.Cycle {
	if e.ver == nil {
		return e.st.FindCycle(&e.sc)
	}
	if err := e.ver.CheckNow(); err != nil {
		return err.Cycle
	}
	return nil
}

// CheckThrough is Check for a caller that knows which statuses changed since
// a deadlock-free verdict: a cycle that was not there before must pass
// through one of them, so in avoidance mode only the gate's targeted search
// from each of tasks runs, their statuses left in place. Every other mode's
// verdict is the full scan's anyway.
func (e *Engine) CheckThrough(tasks []deps.TaskID) *deps.Cycle {
	if e.ver != nil {
		return e.Check()
	}
	for _, t := range tasks {
		if cyc, _ := e.st.CycleThrough(t, &e.sc); cyc != nil {
			return cyc
		}
	}
	return nil
}

// Probe reports whether the state with b inserted is deadlocked — through
// b.Task in avoidance mode, anywhere otherwise — and leaves b.Task with no
// status. It re-validates a recorded gate refusal, whose task holds none.
func (e *Engine) Probe(b deps.Blocked) bool {
	cyc := e.Block(b)
	if e.ver != nil {
		cyc = e.Check()
	}
	e.st.Clear(b.Task) // a no-op after a refusal
	return cyc != nil
}

// Restore inserts statuses that were admitted before — a stored snapshot's
// on rehydration, a recorded trace's on replay — without gating them again.
func (e *Engine) Restore(snap ...deps.Blocked) {
	for i := range snap {
		e.st.SetBlocked(snap[i])
	}
}

// State exposes the dependency state for reading (snapshots, Version, Len).
func (e *Engine) State() *deps.State { return e.st }

// Close releases the engine's verifier, if it has one.
func (e *Engine) Close() {
	if e.ver != nil {
		e.ver.Close()
	}
}
