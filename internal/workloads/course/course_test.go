package course

import (
	"testing"
	"time"

	"armus/internal/core"
	"armus/internal/deps"
)

// runAll exercises every program under the given mode.
func runAll(t *testing.T, mode core.Mode, size int) {
	t.Helper()
	for _, p := range Programs() {
		t.Run(p.Name, func(t *testing.T) {
			v := core.New(core.WithMode(mode), core.WithPeriod(5*time.Millisecond))
			defer v.Close()
			res, err := p.Run(v, Config{Size: size})
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			if !res.Verified {
				t.Fatalf("%s: unverified (checksum %g)", p.Name, res.Checksum)
			}
			if mode != core.ModeOff && v.Stats().Deadlocks != 0 {
				t.Fatalf("%s: false deadlock", p.Name)
			}
		})
	}
}

func TestProgramsUnchecked(t *testing.T) { runAll(t, core.ModeOff, 24) }

func TestProgramsDetect(t *testing.T) { runAll(t, core.ModeDetect, 24) }

func TestProgramsAvoid(t *testing.T) { runAll(t, core.ModeAvoid, 24) }

// TestProgramsAvoidFixedWFG and TestProgramsAvoidFixedSG hold a fixed §5.1
// model — the graph build every verdict path ran before the index search
// replaced it, kept as the reference — to the index on every state of each
// program's recorded avoidance run: neither may see a deadlock.
func TestProgramsAvoidFixedWFG(t *testing.T) { againstFixedModel(t, deps.ModelWFG) }

func TestProgramsAvoidFixedSG(t *testing.T) { againstFixedModel(t, deps.ModelSG) }

func againstFixedModel(t *testing.T, model deps.Model) {
	for _, p := range Programs() {
		t.Run(p.Name, func(t *testing.T) {
			muts, err := p.Record(core.ModeAvoid, 16)
			if err != nil {
				t.Fatal(err)
			}
			st, bd := deps.NewState(), deps.NewBuilder()
			var sc deps.CycleScratch
			for i := range muts {
				muts[i].Apply(st)
				snap := st.Snapshot()
				if cyc := bd.Build(model, snap).FindDeadlock(snap); cyc != nil {
					t.Fatalf("mutation %d: the %v graph reports %+v", i, model, cyc)
				}
				if cyc, _ := st.FindCycle(&sc); cyc != nil {
					t.Fatalf("mutation %d: the index reports %+v", i, cyc)
				}
			}
		})
	}
}

func TestFIValuesExact(t *testing.T) {
	v := core.New(core.WithMode(core.ModeAvoid))
	defer v.Close()
	res, err := RunFI(v, Config{Size: 30})
	if err != nil || !res.Verified {
		t.Fatalf("FI: %v", err)
	}
}

func TestFRKnownValue(t *testing.T) {
	v := core.New(core.WithMode(core.ModeAvoid))
	defer v.Close()
	res, err := RunFR(v, Config{Size: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != 55 { // fib(10)
		t.Fatalf("FR checksum = %g, want 55", res.Checksum)
	}
}

func TestSEPrimeCount(t *testing.T) {
	v := core.New(core.WithMode(core.ModeDetect), core.WithPeriod(5*time.Millisecond))
	defer v.Close()
	res, err := RunSE(v, Config{Size: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != 25 { // π(100) = 25
		t.Fatalf("SE found %g primes, want 25", res.Checksum)
	}
}

func TestBFSAndPSScaling(t *testing.T) {
	for _, size := range []int{8, 40, 90} {
		v := core.New(core.WithMode(core.ModeDetect), core.WithPeriod(2*time.Millisecond))
		if res, err := RunBFS(v, Config{Size: size}); err != nil || !res.Verified {
			t.Fatalf("BFS size=%d: %v", size, err)
		}
		if res, err := RunPS(v, Config{Size: size}); err != nil || !res.Verified {
			t.Fatalf("PS size=%d: %v", size, err)
		}
		v.Close()
	}
}

// TestPSShapeFavoursSG: PS is the paper's flagship case for adaptive
// selection (Table 3: 781 WFG edges vs 6 SG edges). Over every state of a
// recorded PS run the fixed WFG must build many times the fixed SG's
// edges, and the adaptive policy must pick the SG every time.
func TestPSShapeFavoursSG(t *testing.T) {
	muts, err := Program{"PS", RunPS}.Record(core.ModeObserve, 64)
	if err != nil {
		t.Fatal(err)
	}
	st, bd := deps.NewState(), deps.NewBuilder()
	var wfg, sg int
	for i := range muts {
		muts[i].Apply(st)
		snap := st.Snapshot()
		wfg += bd.Build(deps.ModelWFG, snap).Graph.NumEdges()
		sg += bd.Build(deps.ModelSG, snap).Graph.NumEdges()
		if m := bd.Build(deps.ModelAuto, snap).Model; m != deps.ModelSG {
			t.Fatalf("mutation %d: adaptive picked %v on a PS state of %d tasks", i, m, len(snap))
		}
	}
	n := float64(len(muts))
	if sg == 0 || wfg < 8*sg {
		t.Fatalf("PS edge counts do not show the paper's shape: wfg=%.1f sg=%.1f per check", float64(wfg)/n, float64(sg)/n)
	}
	t.Logf("%d checks: wfg=%.1f sg=%.1f edges per check", len(muts), float64(wfg)/n, float64(sg)/n)
}
