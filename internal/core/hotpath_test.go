package core

import (
	"testing"

	"armus/internal/deps"
)

// chainState seeds the verifier with a deadlock-free dependency chain of n
// blocked tasks: task i awaits phase 1 of phaser i+1 while registered with
// phaser i at phase 0, so the WFG is the path t0 -> t1 -> ... -> t(n-1)
// with no cycle (nobody impedes phaser n). Task IDs start at base.
func chainState(v *Verifier, base int64, n int) {
	for i := 0; i < n; i++ {
		v.State().SetBlocked(deps.Blocked{
			Task:     deps.TaskID(base + int64(i)),
			WaitsFor: []deps.Resource{{Phaser: deps.PhaserID(base + int64(i) + 1), Phase: 1}},
			Regs:     []deps.Reg{{Phaser: deps.PhaserID(base + int64(i)), Phase: 0}},
		})
	}
}

// gateProbe returns a blocked status whose gate check must walk the whole
// chain: it awaits an event impeded by the chain head and is itself
// awaited by nothing that closes a cycle — the worst deadlock-free case.
func gateProbe(base int64, n int) deps.Blocked {
	return deps.Blocked{
		Task: deps.TaskID(base + int64(n) + 100),
		// Awaits phaser base@1, impeded by t0 (registered at 0): the DFS
		// enters the chain and traverses it to the dead end.
		WaitsFor: []deps.Resource{{Phaser: deps.PhaserID(base), Phase: 1}},
		// Registered on the chain tail's awaited phaser ABOVE every
		// awaited phase, so no in-edge exists... except we register at
		// phase 0 on the probe's own phaser to keep the shape realistic.
		Regs: []deps.Reg{{Phaser: deps.PhaserID(base + int64(n) + 100), Phase: 0}},
	}
}

// TestAvoidGateZeroAlloc guards the tentpole property: the avoidance-mode
// gate (targeted cycle check + state insert/remove) performs zero
// allocations in steady state.
func TestAvoidGateZeroAlloc(t *testing.T) {
	v := New(WithMode(ModeAvoid), WithIDBase(1<<20)) // its own tasks and phasers clear of the chain's IDs
	defer v.Close()
	const n = 64
	chainState(v, 1, n)
	probe := gateProbe(1, n)
	// Warm up pools, index lists and scratch.
	for i := 0; i < 10; i++ {
		if cyc := v.block(probe); cyc != nil {
			t.Fatalf("false deadlock: %+v", cyc)
		}
		v.unblock(probe.Task)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if cyc := v.block(probe); cyc != nil {
			t.Fatalf("false deadlock: %+v", cyc)
		}
		v.unblock(probe.Task)
	})
	if allocs != 0 {
		t.Fatalf("avoidance gate allocates %.1f times per check, want 0", allocs)
	}
	// The same through a task, which builds the status in its own buffers
	// under its lock: a member of a fresh phaser awaiting the chain head.
	tk := v.NewTask("")
	v.NewPhaser(tk)
	head := deps.Resource{Phaser: 1, Phase: 1}
	allocs = testing.AllocsPerRun(200, func() {
		if cyc := tk.block(head); cyc != nil {
			t.Fatalf("false deadlock: %+v", cyc)
		}
		v.unblock(tk.ID())
	})
	if allocs != 0 {
		t.Fatalf("a task's block and resume allocate %.1f times, want 0", allocs)
	}
}

// TestCheckNowUnchangedZeroAlloc guards the version short-circuit: CheckNow
// on an unchanged state must not snapshot, build or allocate.
func TestCheckNowUnchangedZeroAlloc(t *testing.T) {
	v := New(WithMode(ModeObserve)) // no background loop to perturb counters
	defer v.Close()
	chainState(v, 1, 64)
	if e := v.CheckNow(); e != nil {
		t.Fatalf("false deadlock: %v", e)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if e := v.CheckNow(); e != nil {
			t.Fatalf("false deadlock: %v", e)
		}
	})
	if allocs != 0 {
		t.Fatalf("CheckNow on unchanged state allocates %.1f times, want 0", allocs)
	}
}

// churnBehind sets and clears probe through State, behind the engine's
// back, as the benchmark's verifier rung writes: the next verdict must scan
// the whole state.
func churnBehind(v *Verifier, probe deps.Blocked) {
	v.State().SetBlocked(probe)
	v.State().Clear(probe.Task)
}

// TestFullScanSteadyStateZeroAlloc guards the detection-scan path: with the
// engine's scratch warm, the index's one-pass search of the whole state —
// what a verdict runs after a write behind the engine's back — allocates
// nothing.
func TestFullScanSteadyStateZeroAlloc(t *testing.T) {
	v := New(WithMode(ModeObserve))
	defer v.Close()
	chainState(v, 1, 64)
	probe := gateProbe(1, 64)
	for i := 0; i < 10; i++ {
		churnBehind(v, probe)
		if e := v.CheckNow(); e != nil {
			t.Fatalf("false deadlock: %v", e)
		}
	}
	checks := v.Stats().Checks
	allocs := testing.AllocsPerRun(200, func() {
		churnBehind(v, probe)
		if e := v.CheckNow(); e != nil {
			t.Fatalf("false deadlock: %v", e)
		}
	})
	if got := v.Stats().Checks - checks; got != 201 { // AllocsPerRun runs once more to warm up
		t.Fatalf("%d searches over 201 verdicts after a write behind the engine's back", got)
	}
	if allocs != 0 {
		t.Fatalf("full scan allocates %.1f times per check, want 0", allocs)
	}
}

// TestAvoidGateStillCatchesCycle sanity-checks the targeted gate on the
// shapes the zero-alloc tests use: closing the chain into a ring must be
// refused.
func TestAvoidGateStillCatchesCycle(t *testing.T) {
	v := New(WithMode(ModeAvoid))
	defer v.Close()
	const n = 8
	chainState(v, 1, n)
	// t_closer awaits the chain head's phaser and is registered below the
	// tail's awaited event: edge t(n-1) -> closer and closer -> t0 close
	// the ring.
	closer := deps.Blocked{
		Task:     deps.TaskID(1 + n + 100),
		WaitsFor: []deps.Resource{{Phaser: deps.PhaserID(1), Phase: 1}},
		Regs:     []deps.Reg{{Phaser: deps.PhaserID(1 + n), Phase: 0}},
	}
	cyc := v.block(closer)
	if cyc == nil {
		t.Fatal("targeted gate missed the cycle closing the chain")
	}
	found := false
	for _, tk := range cyc.Tasks {
		if tk == closer.Task {
			found = true
		}
	}
	if !found {
		t.Fatalf("cycle %v does not pass through the blocking task", cyc.Tasks)
	}
	if v.State().Len() != n {
		t.Fatalf("refused block not rolled back: %d blocked", v.State().Len())
	}
}

// BenchmarkHotPath measures the per-check cost of the verification hot
// paths in steady state: the targeted avoidance gate (with and without the
// in-edge pre-filter rejecting immediately), the version-cached CheckNow,
// and a full detection scan. All sub-benchmarks report allocations; every
// one must show 0 allocs/op.
func BenchmarkHotPath(b *testing.B) {
	const n = 64
	b.Run("avoid-gate/chain-64", func(b *testing.B) {
		v := New(WithMode(ModeAvoid))
		defer v.Close()
		chainState(v, 1, n)
		probe := gateProbe(1, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cyc := v.block(probe); cyc != nil {
				b.Fatalf("false deadlock: %+v", cyc)
			}
			v.unblock(probe.Task)
		}
	})
	b.Run("avoid-gate/prefilter-64", func(b *testing.B) {
		// SPMD shape: the probe arrived, so it impedes only phases nobody
		// awaits — the gate rejects on the in-edge pre-filter.
		v := New(WithMode(ModeAvoid))
		defer v.Close()
		for i := 0; i < n; i++ {
			v.State().SetBlocked(deps.Blocked{
				Task:     deps.TaskID(i + 1),
				WaitsFor: []deps.Resource{{Phaser: 1, Phase: 1}},
				Regs:     []deps.Reg{{Phaser: 1, Phase: 1}},
			})
		}
		probe := deps.Blocked{
			Task:     deps.TaskID(n + 100),
			WaitsFor: []deps.Resource{{Phaser: 1, Phase: 1}},
			Regs:     []deps.Reg{{Phaser: 1, Phase: 1}},
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cyc := v.block(probe); cyc != nil {
				b.Fatalf("false deadlock: %+v", cyc)
			}
			v.unblock(probe.Task)
		}
	})
	b.Run("checknow-unchanged-64", func(b *testing.B) {
		v := New(WithMode(ModeObserve))
		defer v.Close()
		chainState(v, 1, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if e := v.CheckNow(); e != nil {
				b.Fatalf("false deadlock: %v", e)
			}
		}
	})
	b.Run("full-scan-64", func(b *testing.B) {
		v := New(WithMode(ModeObserve))
		defer v.Close()
		chainState(v, 1, n)
		probe := gateProbe(1, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			churnBehind(v, probe)
			if e := v.CheckNow(); e != nil {
				b.Fatalf("false deadlock: %v", e)
			}
		}
	})
	b.Run("setblocked-clear", func(b *testing.B) {
		v := New(WithMode(ModeObserve))
		defer v.Close()
		chainState(v, 1, n)
		probe := gateProbe(1, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.State().SetBlocked(probe)
			v.State().Clear(probe.Task)
		}
	})
}
