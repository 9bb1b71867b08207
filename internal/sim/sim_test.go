package sim

import (
	"strings"
	"testing"
)

// shapeFor cycles program shapes so the seed sweep covers tiny hot
// collisions (2 tasks × 1 phaser) through wider programs (6 × 4).
func shapeFor(seed uint64) Config {
	shapes := []Config{
		{Tasks: 4, Phasers: 3, Ops: 10},
		{Tasks: 2, Phasers: 1, Ops: 6},
		{Tasks: 3, Phasers: 2, Ops: 8},
		{Tasks: 6, Phasers: 4, Ops: 14},
	}
	c := shapes[seed%uint64(len(shapes))]
	c.Seed = seed
	return c
}

// seedCount scales a sweep down under -short while CI (no -short) runs the
// full fixed seed set.
func seedCount(t *testing.T, full int) int {
	if testing.Short() {
		return full / 10
	}
	return full
}

// TestDifferentialAvoid sweeps seeded schedules through the lockstep
// avoidance runner: the gate must reject exactly the blocks the oracle
// says close a cycle through the blocking task, a deadlock that a
// third-party Register closes anyway must be reported in the step it
// appears, CheckNow must match the oracle verdict after every step, and the
// runtime state must mirror the model bit-for-bit. Together with TestDifferentialDetect and
// TestDifferentialDist this is the >= 10,000-schedule differential run of
// the acceptance criteria.
func TestDifferentialAvoid(t *testing.T) {
	t.Parallel()
	n := seedCount(t, 5000)
	rejected, untouched, deadlocked := 0, 0, 0
	for seed := uint64(1); seed <= uint64(n); seed++ {
		cfg := shapeFor(seed)
		r, err := Run(cfg, RunAvoid)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rejections > 0 {
			rejected++
		} else {
			untouched++
		}
		if r.DeadlockStep >= 0 {
			deadlocked++
		}
	}
	t.Logf("%d of %d schedules deadlocked through a third-party Register, each reported in that step", deadlocked, n)
	if deadlocked == 0 {
		t.Fatal("no schedule deadlocked: the report requirement was never exercised")
	}
	// Non-vacuity: plenty of schedules where the gate had to refuse a
	// block, and plenty it let run untouched. (The final state is rarely
	// deadlocked here — that is avoidance working.)
	if rejected < n/20 || untouched < n/20 {
		t.Fatalf("unbalanced sweep: %d with rejections, %d without", rejected, untouched)
	}
}

// TestDifferentialDetect sweeps schedules through the detection runner:
// the fake-clock-stepped scan loop must report a deadlock at the step it
// appears, never report while the oracle says clean, and every reported
// task must be in the oracle's stuck set.
func TestDifferentialDetect(t *testing.T) {
	t.Parallel()
	reports := 0
	for seed := uint64(1); seed <= uint64(seedCount(t, 3500)); seed++ {
		r, err := Run(shapeFor(seed), RunDetect)
		if err != nil {
			t.Fatal(err)
		}
		reports += r.Reports
	}
	if reports == 0 {
		t.Fatal("detection sweep produced no reports: vacuous")
	}
}

// TestDifferentialDist pushes every schedule's final blocked configuration
// through the store, split across three observe-mode sites: each site's
// merged-view analysis must reach the oracle's verdict.
func TestDifferentialDist(t *testing.T) {
	t.Parallel()
	dc, err := NewDistChecker(3)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	crossSite := 0
	for seed := uint64(1); seed <= uint64(seedCount(t, 2000)); seed++ {
		r, err := RunDist(dc, shapeFor(seed))
		if err != nil {
			t.Fatal(err)
		}
		if r.Deadlocked && len(r.FinalBlocked) > 1 {
			crossSite++ // stuck sets large enough to straddle sites
		}
	}
	if crossSite == 0 {
		t.Fatal("dist sweep never split a deadlock across sites: vacuous")
	}
}

// TestRunsAreDeterministic: the same seed must replay the same schedule
// and verdict — the property every printed reproduction line relies on.
func TestRunsAreDeterministic(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 50; seed++ {
		cfg := shapeFor(seed)
		for _, mode := range []RunMode{RunModel, RunAvoid, RunDetect} {
			a, err := Run(cfg, mode)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg, mode)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Schedule) != len(b.Schedule) || a.Deadlocked != b.Deadlocked ||
				a.DeadlockStep != b.DeadlockStep {
				t.Fatalf("seed %d %v: runs differ: %+v vs %+v", seed, mode, a, b)
			}
			for i := range a.Schedule {
				if a.Schedule[i] != b.Schedule[i] {
					t.Fatalf("seed %d %v: schedules diverge at %d", seed, mode, i)
				}
			}
		}
	}
}

// TestModesAgreeOnModel: the abstract machine is shared, so the model-only
// run and the detect run (which never changes membership) must see the
// same final verdict; avoidance legitimately differs (rejected blocks are
// rolled back), but a schedule avoidance finishes clean must be one whose
// detect run either deadlocked (avoidance dodged it) or finished clean.
func TestModesAgreeOnModel(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 300; seed++ {
		cfg := shapeFor(seed)
		m, err := Run(cfg, RunModel)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Run(cfg, RunDetect)
		if err != nil {
			t.Fatal(err)
		}
		if m.Deadlocked != d.Deadlocked || m.DeadlockStep != d.DeadlockStep {
			t.Fatalf("seed %d: model and detect runs disagree: %+v vs %+v", seed, m, d)
		}
	}
}

// TestInjectedDisagreementReproduces is the harness's own smoke alarm: a
// flipped oracle verdict must fail every pipeline, print the seed, and
// fail again identically when replayed from that seed — proving a real
// divergence could never slip through or be unreproducible.
func TestInjectedDisagreementReproduces(t *testing.T) {
	t.Parallel()
	dc, err := NewDistChecker(2)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := shapeFor(seed)
		cfg.FlipFinalVerdict = true
		cfg.TraceDir = t.TempDir()
		check := func(what string, run func() error) {
			t.Helper()
			first := run()
			if first == nil {
				t.Fatalf("seed %d %s: flipped verdict not caught", seed, what)
			}
			div, ok := first.(*Divergence)
			if !ok {
				t.Fatalf("seed %d %s: error is %T, want *Divergence", seed, what, first)
			}
			msg := div.Error()
			if !strings.Contains(msg, "reproduce: go run ./cmd/armus-sim") ||
				!strings.Contains(msg, "-flip") {
				t.Fatalf("divergence message lacks reproduction line: %s", msg)
			}
			// Replay from the printed configuration: same failure. The
			// auto-saved trace path is the one legitimately fresh part of
			// the report, so it is normalized out of the comparison.
			second := run()
			if second == nil {
				t.Fatalf("seed %d %s: divergence did not reproduce (second run clean)", seed, what)
			}
			div2, ok := second.(*Divergence)
			if !ok {
				t.Fatalf("seed %d %s: second error is %T, want *Divergence", seed, what, second)
			}
			a, b := *div, *div2
			a.TracePath, b.TracePath = "", ""
			if a.Error() != b.Error() {
				t.Fatalf("seed %d %s: divergence did not reproduce:\nfirst:  %v\nsecond: %v",
					seed, what, first, second)
			}
		}
		check("avoid", func() error { _, err := Run(cfg, RunAvoid); return err })
		check("detect", func() error { _, err := Run(cfg, RunDetect); return err })
		check("dist", func() error { _, err := RunDist(dc, cfg); return err })
	}
}

// TestGenerateDeterministic: programs are a pure function of the config.
func TestGenerateDeterministic(t *testing.T) {
	t.Parallel()
	a := Generate(Config{Seed: 12})
	b := Generate(Config{Seed: 12})
	if a.String() != b.String() {
		t.Fatal("same seed generated different programs")
	}
	if a.String() == Generate(Config{Seed: 13}).String() {
		t.Fatal("different seeds generated identical programs")
	}
}
