package engine

import (
	"math/rand"
	"testing"

	"armus/internal/deps"
	"armus/internal/sim/oracle"
)

// fullScan is the verdict as every mode but avoidance used to reach it, kept
// here as the reference the incremental one is checked against: the graph
// built from nothing out of a snapshot, under each model, and searched whole.
func fullScan(t *testing.T, bd *deps.Builder, snap []deps.Blocked) bool {
	t.Helper()
	sg := bd.Build(deps.ModelSG, snap).FindDeadlock(snap) != nil
	wfg := bd.Build(deps.ModelWFG, snap).FindDeadlock(snap) != nil
	auto := bd.Build(deps.ModelAuto, snap).FindDeadlock(snap) != nil
	if sg != wfg || sg != auto {
		t.Fatalf("the reference disagrees with itself: SG %v, WFG %v, auto %v on %+v", sg, wfg, auto, snap)
	}
	return sg
}

// TestEngineDifferential drives an engine of every mode through seeded
// random sequences in which Check comes at random points, not after every
// step — so that several statuses are set, set again and cleared between two
// verdicts, as between two batches of a streaming session — and holds every
// verdict against the full scan of a snapshot under SG, WFG and auto, every
// fiftieth step against the exhaustive oracle as well, and every reported
// cycle against the edges of the state. Some writes go to the engine's State
// directly, as the repository benchmark's verifier rung and core.Verifier's
// unblock make them, and the next verdict must still be exact. Statuses are
// drawn as
// TestDistChurnAgainstReference draws them, so cycles form and dissolve.
func TestEngineDifferential(t *testing.T) {
	steps := 20000
	if testing.Short() {
		steps = 4000
	}
	phasers := []deps.PhaserID{1, 2, 3, 4, 5, 6}
	for _, gating := range []bool{true, false} {
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			bd := deps.NewBuilder()
			e, m := New(gating), model{}
			status := func() deps.Blocked {
				w := deps.Resource{Phaser: phasers[rng.Intn(len(phasers))], Phase: int64(1 + rng.Intn(3))}
				b := deps.Blocked{Task: deps.TaskID(1 + rng.Intn(10)), WaitsFor: []deps.Resource{w}}
				for _, q := range phasers {
					if q == w.Phaser {
						b.Regs = append(b.Regs, deps.Reg{Phaser: q, Phase: w.Phase})
					} else if rng.Intn(3) == 0 {
						b.Regs = append(b.Regs, deps.Reg{Phaser: q, Phase: int64(rng.Intn(4))})
					}
				}
				return b
			}
			var (
				step            int
				sets            int  // ungated inserts since the last verdict
				wasDeadlocked   bool // the last verdict
				checks, hits    int
				dissolved       int // a verdict of none right after one of a deadlock
				overflowed      int // more sets than blocked tasks between two verdicts
				repeated        int // Check twice on one version
				rehydratedStuck int // Restore of a deadlocked snapshot into a fresh engine
				probes          int // Probe in a mode that does not gate
				behind          int // writes made behind the engine's back since the last verdict
				behindStuck     int // a deadlock they alone closed, found by the next verdict
			)
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("gating=%v seed %d step %d: "+format+"\nstate: %+v", append(append([]any{gating, seed, step}, args...), m)...)
			}
			check := func(withOracle bool) {
				t.Helper()
				snap := e.State().Snapshot()
				if !m.sameState(e) {
					fail("engine holds %+v", snap)
				}
				want := fullScan(t, bd, snap)
				if withOracle {
					if stuck := oracle.StuckSet(m.oracle()); (len(stuck) > 0) != want {
						fail("full scan says deadlocked=%v, oracle's stuck set %v", want, stuck)
					}
				}
				cyc := e.Check()
				if (cyc != nil) != want {
					fail("Check() = %v after %d sets on %d blocked tasks (previous verdict %v), full scan says deadlocked=%v",
						cyc, sets, len(snap), wasDeadlocked, want)
				}
				if cyc != nil && !m.isCycle(cyc.Tasks) {
					fail("Check() = %v, not a cycle of the state", cyc.Tasks)
				}
				if again := e.Check(); again != cyc {
					fail("Check() again on an unchanged state = %v, was %v", again, cyc)
				}
				repeated++
				checks++
				if want {
					hits++
				}
				if wasDeadlocked && !want {
					dissolved++
				}
				if sets > len(snap) {
					overflowed++
				}
				if behind > 0 && want && !wasDeadlocked && sets == 0 {
					behindStuck++
				}
				sets, behind, wasDeadlocked = 0, 0, want
			}
			for step = 0; step < steps; step++ {
				switch op := rng.Intn(100); {
				case op < 38: // block, or block again
					b := status()
					tentative := m.with(b)
					cyc := e.Block(b)
					refuse := gating && oracle.CycleThrough(tentative.oracle(), int64(b.Task))
					if (cyc != nil) != refuse {
						fail("Block(%+v) = %v, oracle says refuse=%v", b, cyc, refuse)
					}
					if cyc != nil {
						if cyc.Tasks[0] != b.Task || !tentative.isCycle(cyc.Tasks) {
							fail("Block(%+v) refused with %v, not a cycle through the task", b, cyc.Tasks)
						}
						delete(m, b.Task)
						break
					}
					m = tentative
					if !gating {
						sets++
					}
				case op < 70: // resume
					tk := deps.TaskID(1 + rng.Intn(10))
					e.Unblock(tk)
					delete(m, tk)
				case op < 80: // several statuses admitted elsewhere enter ungated
					batch := make([]deps.Blocked, 1+rng.Intn(4))
					for i := range batch {
						batch[i] = status()
						m = m.with(batch[i])
					}
					e.Restore(batch...)
					sets += len(batch)
				case op < 84:
					b := status()
					tentative := m.with(b)
					want := oracle.CycleThrough(tentative.oracle(), int64(b.Task))
					if !gating {
						tsnap := make([]deps.Blocked, 0, len(tentative))
						for _, s := range tentative {
							tsnap = append(tsnap, s)
						}
						want = fullScan(t, bd, tsnap)
						probes++
						// Probe asks for a verdict of its own.
						sets, wasDeadlocked = 0, want
					}
					if got := e.Probe(b); got != want {
						fail("Probe(%+v) = %v, reference %v", b, got, want)
					}
					delete(m, b.Task)
				case op < 86: // failover: a fresh engine takes over from a snapshot
					snap := e.State().Snapshot()
					e = New(gating)
					e.Restore(snap...)
					sets, wasDeadlocked = len(snap), false
					if fullScan(t, bd, snap) {
						rehydratedStuck++
						check(true)
					}
				case op < 90: // a write behind the engine's back, through its State
					if b := status(); op < 88 {
						e.State().SetBlocked(b)
						m = m.with(b)
					} else {
						e.State().Clear(b.Task)
						delete(m, b.Task)
					}
					behind++
				default:
					check(false)
				}
				if step%50 == 49 {
					check(true)
				}
			}
			check(true)
			t.Logf("gating=%v seed %d: %d verdicts checked (%d deadlocks): %d right after a deadlock dissolved, %d after more sets than blocked tasks, "+
				"%d asked twice on one version, %d on a deadlocked snapshot restored into a fresh engine, %d probes in a mode that does not gate, "+
				"%d on a deadlock only a write behind the engine's back closed",
				gating, seed, checks, hits, dissolved, overflowed, repeated, rehydratedStuck, probes, behindStuck)
			if hits < checks/20 || hits > checks*19/20 || dissolved == 0 || overflowed == 0 || repeated == 0 ||
				rehydratedStuck == 0 || gating == (probes > 0) || behindStuck == 0 {
				t.Fatalf("gating=%v seed %d: the churn missed a case it is there for", gating, seed)
			}
		}
	}
}
