// Package engine is the one session engine: what a server session, a trace
// replay, a dist site's merged view and the SDK's parity mirror all do to a
// resource-dependency state — insert a blocked status (gated or not), clear
// it, ask "deadlocked now?" — written once.
//
// Definition 4.1 of the paper makes a blocked status a pure function of its
// task, so the state IS the set of statuses and those three operations are
// the whole interface. Structural events (register / arrive / drop) never
// reach an engine: a membership change of a blocked task is always followed
// by its status refresh, which does.
//
// An Engine is single-writer: its owner (a session's executor, a replay
// loop, a site's check round) serialises every call.
package engine

import (
	"armus/internal/core"
	"armus/internal/deps"
)

// Engine is a dependency state plus its verdict: one mechanism in every
// mode, the gate's targeted search over the state's incremental index. No
// graph is built and no snapshot taken; a reported cycle carries
// deps.ModelWFG.
//
// The verdict is incremental. A cycle that a deadlock-free state did not
// have passes through a status set since — take the member of the cycle set
// last: when it went in, every other member already held the status it has
// now — so Check searches from the tasks noted since its last deadlock-free
// verdict and from nothing else. Block in a mode that does not gate and
// Restore note their task; a Block the avoidance gate admitted needs no
// note, the gate has just proved that no cycle passes through it.
type Engine struct {
	st     *deps.State
	sc     deps.CycleScratch
	gating bool // core.ModeAvoid: Block is the gate

	// set lists the tasks whose status went in ungated since the last
	// deadlock-free verdict, repeats included. Once it is longer than the
	// state has blocked tasks the scan from every blocked task is the
	// cheaper search, so it stops growing there (scan): the state's size
	// bounds it, not a constant.
	set  []deps.TaskID
	scan bool
	// last is the verdict of the state at version lastVer. The zero value
	// is the verdict of an empty state at version 0.
	last    *deps.Cycle
	lastVer uint64
}

// New returns an empty engine. Only core.ModeAvoid gates; every other mode
// inserts unconditionally.
func New(mode core.Mode) *Engine {
	return &Engine{st: deps.NewState(), gating: mode == core.ModeAvoid}
}

// Block records (or replaces) the blocked status of b.Task. In avoidance
// mode it is the gate, verbatim the in-process semantics: the status is
// inserted tentatively and, when that closes a cycle through b.Task, taken
// out again — the task is left with no status at all, also when it held an
// admitted one before — and the cycle is returned. In every other mode the
// insert is unconditional and the result nil.
func (e *Engine) Block(b deps.Blocked) *deps.Cycle {
	e.st.SetBlocked(b)
	if !e.gating {
		e.note(b.Task)
		return nil
	}
	cyc, _ := e.st.CycleThrough(b.Task, &e.sc)
	if cyc != nil {
		e.st.Clear(b.Task)
	}
	return cyc
}

// note records that t's status went in without the gate's proof.
func (e *Engine) note(t deps.TaskID) {
	switch {
	case e.scan:
	case len(e.set) >= e.st.Len():
		e.scan, e.set = true, e.set[:0]
	default:
		e.set = append(e.set, t)
	}
}

// Unblock removes the blocked status of t (the task resumed).
func (e *Engine) Unblock(t deps.TaskID) { e.st.Clear(t) }

// Check is the "deadlocked now?" verdict: a cycle of the current state, or
// nil. An unchanged state version returns the previous verdict. After a
// deadlock verdict every blocked task is searched from, since the cycle
// reported may be the one that dissolved; otherwise only the noted ones.
func (e *Engine) Check() *deps.Cycle {
	ver := e.st.Version()
	if ver == e.lastVer {
		return e.last
	}
	var cyc *deps.Cycle
	if e.last != nil || e.scan || len(e.set) > e.st.Len() {
		cyc = e.st.FindCycle(&e.sc)
	} else {
		for _, t := range e.set {
			if cyc, _ = e.st.CycleThrough(t, &e.sc); cyc != nil {
				break
			}
		}
	}
	e.set, e.scan = e.set[:0], false
	e.last, e.lastVer = cyc, ver
	return cyc
}

// Probe reports whether the state with b inserted is deadlocked — through
// b.Task in avoidance mode, anywhere otherwise — and leaves b.Task with no
// status. It re-validates a recorded gate refusal, whose task holds none.
func (e *Engine) Probe(b deps.Blocked) bool {
	cyc := e.Block(b)
	if !e.gating {
		cyc = e.Check()
	}
	e.st.Clear(b.Task) // a no-op after a refusal
	return cyc != nil
}

// Restore inserts statuses that were admitted before — a stored snapshot's
// on rehydration, a recorded trace's on replay, a peer site's in a merged
// view — without gating them again.
func (e *Engine) Restore(snap ...deps.Blocked) {
	for i := range snap {
		e.st.SetBlocked(snap[i])
		e.note(snap[i].Task)
	}
}

// State exposes the dependency state for reading (snapshots, Version, Len).
func (e *Engine) State() *deps.State { return e.st }
