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
		v.state.SetBlocked(deps.Blocked{
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
	v := New(WithMode(ModeAvoid))
	defer v.Close()
	const n = 64
	chainState(v, 1, n)
	probe := gateProbe(1, n)
	// Warm up pools, index lists and scratch.
	for i := 0; i < 10; i++ {
		if cyc := v.avoidCheck(probe); cyc != nil {
			t.Fatalf("false deadlock: %+v", cyc)
		}
		v.state.Clear(probe.Task)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if cyc := v.avoidCheck(probe); cyc != nil {
			t.Fatalf("false deadlock: %+v", cyc)
		}
		v.state.Clear(probe.Task)
	})
	if allocs != 0 {
		t.Fatalf("avoidance gate allocates %.1f times per check, want 0", allocs)
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

// TestFullScanSteadyStateZeroAlloc guards the detection-scan path: with the
// cycle scratch warm, the index's one-pass search of the whole state — the
// detect loop's, CheckNow's and the gate's defensive scan — allocates
// nothing.
func TestFullScanSteadyStateZeroAlloc(t *testing.T) {
	v := New(WithMode(ModeObserve))
	defer v.Close()
	chainState(v, 1, 64)
	var sc deps.CycleScratch
	for i := 0; i < 10; i++ {
		if cyc := v.fullScan(&sc); cyc != nil {
			t.Fatalf("false deadlock: %+v", cyc)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if cyc := v.fullScan(&sc); cyc != nil {
			t.Fatalf("false deadlock: %+v", cyc)
		}
	})
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
	cyc := v.avoidCheck(closer)
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
	if v.state.Len() != n {
		t.Fatalf("refused block not rolled back: %d blocked", v.state.Len())
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
			if cyc := v.avoidCheck(probe); cyc != nil {
				b.Fatalf("false deadlock: %+v", cyc)
			}
			v.state.Clear(probe.Task)
		}
	})
	b.Run("avoid-gate/prefilter-64", func(b *testing.B) {
		// SPMD shape: the probe arrived, so it impedes only phases nobody
		// awaits — the gate rejects on the in-edge pre-filter.
		v := New(WithMode(ModeAvoid))
		defer v.Close()
		for i := 0; i < n; i++ {
			v.state.SetBlocked(deps.Blocked{
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
			if cyc := v.avoidCheck(probe); cyc != nil {
				b.Fatalf("false deadlock: %+v", cyc)
			}
			v.state.Clear(probe.Task)
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
		var sc deps.CycleScratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cyc := v.fullScan(&sc); cyc != nil {
				b.Fatalf("false deadlock: %+v", cyc)
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
			v.state.SetBlocked(probe)
			v.state.Clear(probe.Task)
		}
	})
}
