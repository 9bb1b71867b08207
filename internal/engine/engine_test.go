package engine

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"armus/internal/deps"
	"armus/internal/sim/oracle"
)

// model is the reference kept next to the Engine: the blocked statuses by
// task, from which the oracle's state (internal/sim/oracle shares no code
// with deps) and the waits-for edges are read off directly.
type model map[deps.TaskID]deps.Blocked

func (m model) with(b deps.Blocked) model {
	c := model{b.Task: b}
	for t, s := range m {
		if t != b.Task {
			c[t] = s
		}
	}
	return c
}

func (m model) oracle() *oracle.State {
	o := oracle.NewState()
	for t, b := range m {
		regs := map[int64]int64{}
		for _, r := range b.Regs {
			regs[int64(r.Phaser)] = r.Phase
		}
		w := b.WaitsFor[0]
		o.AddBlocked(int64(t), oracle.Await{Phaser: int64(w.Phaser), Phase: w.Phase}, regs)
	}
	return o
}

// edge reports whether from waits for an event that to impedes.
func (m model) edge(from, to deps.TaskID) bool {
	w := m[from].WaitsFor[0]
	return slices.ContainsFunc(m[to].Regs, func(r deps.Reg) bool { return r.Phaser == w.Phaser && r.Phase < w.Phase })
}

// isCycle reports whether tasks is a cycle of m's waits-for graph.
func (m model) isCycle(tasks []deps.TaskID) bool {
	for i, from := range tasks {
		if _, ok := m[from]; !ok || !m.edge(from, tasks[(i+1)%len(tasks)]) {
			return false
		}
	}
	return len(tasks) > 0
}

// sameState reports whether the engine holds exactly m's statuses.
func (m model) sameState(e *Engine) bool {
	want := make([]deps.Blocked, 0, len(m))
	for _, b := range m {
		want = append(want, b)
	}
	slices.SortFunc(want, func(a, b deps.Blocked) int { return cmp.Compare(a.Task, b.Task) })
	return slices.EqualFunc(want, e.State().Snapshot(), func(a, b deps.Blocked) bool {
		return a.Task == b.Task && slices.Equal(a.WaitsFor, b.WaitsFor) && slices.Equal(a.Regs, b.Regs)
	})
}

// TestEngineAgainstOracle drives an Engine of each mode through seeded
// random sequences — block, re-block with a changed status, a block built
// to close a cycle (also as the re-block of an admitted task), an ungated
// insert, probe, unblock, and a move of the whole state into a fresh engine
// through a snapshot — and checks every Block and Probe decision against
// oracle.CycleThrough on the tentative state, every Check (the one right
// after an ungated insert into a deadlock-free state, which must find its
// cycle through the inserted task, included) against oracle.StuckSet, and
// after every step that the engine holds exactly the
// statuses it should: after a refusal, those from before the call minus the
// refused task's.
func TestEngineAgainstOracle(t *testing.T) {
	steps := 10000
	if testing.Short() {
		steps = 2000
	}
	for _, gating := range []bool{true, false} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e, m := New(gating), model{}
			refusals, deadlocked, restores, targeted := 0, 0, 0, 0
			random := func(tk deps.TaskID) deps.Blocked {
				b := deps.Blocked{Task: tk, WaitsFor: []deps.Resource{{Phaser: deps.PhaserID(1 + rng.Intn(4)), Phase: int64(1 + rng.Intn(4))}}}
				for q := 1; q <= 4; q++ {
					if rng.Intn(2) == 0 {
						b.Regs = append(b.Regs, deps.Reg{Phaser: deps.PhaserID(q), Phase: int64(rng.Intn(4))})
					}
				}
				return b
			}
			// closing builds a status for tk that closes a two-task cycle
			// with some other blocked task: tk awaits an event u impedes and
			// impedes the event u awaits.
			closing := func(tk deps.TaskID) deps.Blocked {
				for u, s := range m {
					if u != tk && len(s.Regs) > 0 {
						r, w := s.Regs[rng.Intn(len(s.Regs))], s.WaitsFor[0]
						return deps.Blocked{Task: tk,
							WaitsFor: []deps.Resource{{Phaser: r.Phaser, Phase: r.Phase + 1}},
							Regs:     []deps.Reg{{Phaser: w.Phaser, Phase: w.Phase - 1}}}
					}
				}
				return random(tk)
			}
			for step := 0; step < steps; step++ {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("gating=%v seed %d step %d: "+format+"\nstate: %+v", append(append([]any{gating, seed, step}, args...), m)...)
				}
				tk := deps.TaskID(1 + rng.Intn(8))
				switch op := rng.Intn(16); {
				case op < 8: // block or re-block, half of them built to close a cycle
					b := random(tk)
					if op < 4 {
						b = closing(tk)
					}
					tentative := m.with(b)
					want := gating && oracle.CycleThrough(tentative.oracle(), int64(tk))
					cyc := e.Block(b)
					if (cyc != nil) != want {
						fail("Block(%+v) = %v, oracle says refuse=%v", b, cyc, want)
					}
					if cyc == nil {
						m = tentative
						break
					}
					if cyc.Tasks[0] != tk || !tentative.isCycle(cyc.Tasks) {
						fail("Block(%+v) refused with %v, not a cycle through the task", b, cyc.Tasks)
					}
					refusals++
					delete(m, tk)
				case op < 10: // a status admitted elsewhere enters ungated
					b := closing(tk)
					clean := len(oracle.StuckSet(m.oracle())) == 0
					e.Restore(b)
					m = m.with(b)
					if !clean {
						break
					}
					// The state had no deadlock, so a search through the one
					// status that changed is the whole verdict.
					cyc := e.Check()
					if want := len(oracle.StuckSet(m.oracle())) > 0; (cyc != nil) != want {
						fail("Check() after Restore(%+v) = %v, oracle says deadlocked=%v", b, cyc, want)
					}
					if cyc != nil && (cyc.Tasks[0] != tk || !m.isCycle(cyc.Tasks)) {
						fail("Check() after Restore(%+v) = %v, not a cycle through the task", b, cyc.Tasks)
					}
					targeted++
				case op < 11:
					b := closing(tk)
					tentative := m.with(b)
					want := oracle.CycleThrough(tentative.oracle(), int64(tk))
					if !gating {
						want = len(oracle.StuckSet(tentative.oracle())) > 0
					}
					if got := e.Probe(b); got != want {
						fail("Probe(%+v) = %v, oracle %v", b, got, want)
					}
					delete(m, tk)
				case op < 15:
					e.Unblock(tk)
					delete(m, tk)
				default: // failover: a fresh engine takes over from a snapshot
					fresh := New(gating)
					fresh.Restore(e.State().Snapshot()...)
					e = fresh
					restores++
				}
				if !m.sameState(e) {
					fail("engine holds %+v", e.State().Snapshot())
				}
				cyc := e.Check()
				if want := len(oracle.StuckSet(m.oracle())) > 0; (cyc != nil) != want {
					fail("Check() = %v, oracle says deadlocked=%v", cyc, want)
				}
				if cyc != nil {
					deadlocked++
					if !m.isCycle(cyc.Tasks) {
						fail("Check() = %v, not a cycle", cyc.Tasks)
					}
				}
			}
			if deadlocked == 0 || restores == 0 || targeted == 0 || gating != (refusals > 0) {
				t.Fatalf("gating=%v seed %d: %d refusals, %d deadlocked steps, %d restores, %d targeted checks: a case was never reached",
					gating, seed, refusals, deadlocked, restores, targeted)
			}
		}
	}
}

// TestCheckAfterWriteBehindEngine: a status written through State, not
// through the engine, is not noted, yet the next Check must see the cycle it
// closes — also when the engine noted another task of its own meanwhile, whose
// targeted search alone would miss the cycle — and then see it dissolve.
func TestCheckAfterWriteBehindEngine(t *testing.T) {
	a := deps.Blocked{Task: 1, WaitsFor: []deps.Resource{{Phaser: 1, Phase: 1}}, Regs: []deps.Reg{{Phaser: 2, Phase: 0}}}
	b := deps.Blocked{Task: 2, WaitsFor: []deps.Resource{{Phaser: 2, Phase: 1}}, Regs: []deps.Reg{{Phaser: 1, Phase: 0}}}
	c := deps.Blocked{Task: 3, WaitsFor: []deps.Resource{{Phaser: 3, Phase: 1}}}
	for _, gating := range []bool{true, false} {
		e := New(gating)
		e.Restore(a)
		if cyc := e.Check(); cyc != nil {
			t.Fatalf("gating=%v: Check() = %v with one task blocked", gating, cyc.Tasks)
		}
		e.State().SetBlocked(b)
		e.Restore(c)
		if cyc := e.Check(); cyc == nil || !(model{1: a, 2: b}).isCycle(cyc.Tasks) {
			t.Fatalf("gating=%v: Check() = %v after a write behind the engine closed the cycle [1 2]", gating, cyc)
		}
		e.State().Clear(b.Task)
		if cyc := e.Check(); cyc != nil {
			t.Fatalf("gating=%v: Check() = %v after a write behind the engine cleared the cycle", gating, cyc.Tasks)
		}
	}
}
