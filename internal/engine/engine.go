// Package engine is the one session engine: what a server session, a trace
// replay, a dist site's merged view, the SDK's parity mirror and the
// in-process verifier (core.Verifier) all do to a resource-dependency state
// — insert a blocked status (gated or not), clear it, ask "deadlocked
// now?" — written once.
//
// Definition 4.1 of the paper makes a blocked status a pure function of its
// task, so the state IS the set of statuses and those three operations are
// the whole interface. Structural events (register / arrive / drop) never
// reach an engine: a membership change of a blocked task is always followed
// by its status refresh (Reregister, or a whole new status), which does.
//
// An Engine is single-writer: its owner (a server session's lock, a replay
// loop, a site's check round, the verifier's lock) serialises every call.
package engine

import "armus/internal/deps"

// Engine is a dependency state plus its verdict: one mechanism in every
// mode, the gate's targeted search over the state's incremental index. No
// graph is built and no snapshot taken; a reported cycle carries
// deps.ModelWFG.
//
// The verdict is incremental. A cycle that a deadlock-free state did not
// have passes through a status set since — take the member of the cycle set
// last: when it went in, every other member already held the status it has
// now — so Check searches from the tasks noted since its last deadlock-free
// verdict and from nothing else. Block in a mode that does not gate,
// Restore and Reregister note their task; a Block the avoidance gate
// admitted needs no note, the gate has just proved that no cycle passes
// through it.
//
// The state may also be written behind the engine's back, through State:
// the repository benchmark's rungs and the programs that inject statuses
// into dist sites do, while core.Verifier makes every write through the
// engine. Such a write is never noted, so Check compares how far the
// state's version moved with the version steps of the engine's own writes,
// and scans the whole state when the two differ.
type Engine struct {
	st     *deps.State
	sc     deps.CycleScratch
	gating bool // Block is the avoidance gate

	// set lists the tasks whose status went in ungated since the last
	// deadlock-free verdict, repeats included. Once it is longer than the
	// state has blocked tasks the one-pass scan of the whole state is the
	// cheaper search, so it stops growing there (scan): the state's size
	// bounds it, not a constant.
	set  []deps.TaskID
	scan bool
	// blocked is the count of blocked tasks the engine's last SetBlocked or
	// Clear returned. A gate's insert only brings the scan forward by
	// leaving it stale; after a write behind the engine's back Check scans.
	blocked int
	// own counts the version steps of the engine's own writes since lastVer.
	own uint64
	// last is the verdict of the state at version lastVer. The zero value
	// is the verdict of an empty state at version 0.
	last    *deps.Cycle
	lastVer uint64

	stats Stats
}

// Stats counts the searches an engine ran — each gate, and each targeted or
// whole-state search of a verdict — and the Wait-For-Graph edges they
// examined.
type Stats struct {
	Searches int64
	Edges    int64 // summed over every search
	MaxEdges int64 // the most one search examined
}

// New returns an empty engine. With gating, Block is the avoidance gate;
// otherwise every insert is unconditional.
func New(gating bool) *Engine {
	return &Engine{st: deps.NewState(), gating: gating}
}

// Block records (or replaces) the blocked status of b.Task. In avoidance
// mode it is the gate, verbatim the in-process semantics: the status is
// inserted tentatively and, when that closes a cycle through b.Task, taken
// out again — the task is left with no status at all, also when it held an
// admitted one before — and the cycle is returned. In every other mode the
// insert is unconditional and the result nil.
func (e *Engine) Block(b deps.Blocked) *deps.Cycle {
	e.own++
	if !e.gating {
		e.blocked = e.st.SetBlocked(b)
		e.note(b.Task)
		return nil
	}
	cyc := e.counted(e.st.BlockThrough(b, &e.sc))
	if cyc != nil {
		e.Unblock(b.Task)
	}
	return cyc
}

// note records that t's status went in without the gate's proof.
func (e *Engine) note(t deps.TaskID) {
	switch {
	case e.scan:
	case len(e.set) >= e.blocked:
		e.scan, e.set = true, e.set[:0]
	default:
		e.set = append(e.set, t)
	}
}

// counted accounts one search in the engine's Stats and passes its cycle on.
func (e *Engine) counted(cyc *deps.Cycle, edges int) *deps.Cycle {
	e.stats.Searches++
	e.stats.Edges += int64(edges)
	e.stats.MaxEdges = max(e.stats.MaxEdges, int64(edges))
	return cyc
}

// Unblock removes the blocked status of t (the task resumed). Clearing a
// task with no status does not move the state's version.
func (e *Engine) Unblock(t deps.TaskID) {
	ver := e.st.Version()
	e.blocked = e.st.Clear(t)
	e.own += e.st.Version() - ver
}

// UnblockAll is Unblock of every task in ts, under one lock of the state.
func (e *Engine) UnblockAll(ts []deps.TaskID) {
	ver := e.st.Version()
	e.blocked = e.st.ClearAll(ts)
	e.own += e.st.Version() - ver
}

// Check is the "deadlocked now?" verdict: a cycle of the current state, or
// nil. An unchanged state version returns the previous verdict. After a
// deadlock verdict, or a write the engine did not make, the whole state is
// searched; otherwise only from the noted tasks.
func (e *Engine) Check() *deps.Cycle {
	ver := e.st.Version()
	if ver == e.lastVer {
		return e.last
	}
	var cyc *deps.Cycle
	if e.last != nil || e.scan || len(e.set) > e.blocked || ver-e.lastVer != e.own {
		cyc = e.counted(e.st.FindCycle(&e.sc))
	} else {
		for _, t := range e.set {
			if cyc = e.counted(e.st.CycleThrough(t, &e.sc)); cyc != nil {
				break
			}
		}
	}
	e.set, e.scan, e.own = e.set[:0], false, 0
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
	e.Unblock(b.Task) // a no-op after a refusal
	return cyc != nil
}

// Restore inserts statuses that were admitted before — a stored snapshot's
// on rehydration, a recorded trace's on replay, a peer site's in a merged
// view — without gating them again.
func (e *Engine) Restore(snap ...deps.Blocked) {
	for i := range snap {
		e.blocked = e.st.SetBlocked(snap[i])
		e.own++
		e.note(snap[i].Task)
	}
}

// Reregister is State.Reregister, a third party's refresh of a blocked
// task: no gate sees it, so t is noted.
func (e *Engine) Reregister(t deps.TaskID, regs []deps.Reg) bool {
	if !e.st.Reregister(t, regs) {
		return false
	}
	e.own++
	e.note(t)
	return true
}

// State exposes the dependency state (snapshots, Version, Len, and the
// writes Check accounts for as made behind the engine's back).
func (e *Engine) State() *deps.State { return e.st }

// Stats returns the engine's search counters.
func (e *Engine) Stats() Stats { return e.stats }
