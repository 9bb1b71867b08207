package npb

import (
	"math"
	"testing"
	"time"

	"armus/internal/core"
)

func modes() []core.Mode {
	return []core.Mode{core.ModeOff, core.ModeDetect, core.ModeAvoid}
}

// TestAllKernelsAllModes runs every kernel at smoke size with 1, 2 and 5
// tasks under all three verification modes: results must validate and no
// false deadlock may fire.
func TestAllKernelsAllModes(t *testing.T) {
	for _, k := range Kernels() {
		for _, mode := range modes() {
			for _, tasks := range []int{1, 2, 5} {
				k, mode, tasks := k, mode, tasks
				t.Run(k.Name+"/"+mode.String(), func(t *testing.T) {
					v := core.New(core.WithMode(mode), core.WithPeriod(5*time.Millisecond))
					defer v.Close()
					res, err := k.Run(v, Config{Tasks: tasks, Class: 1})
					if err != nil {
						t.Fatalf("%s tasks=%d: %v (checksum %g)", k.Name, tasks, err, res.Checksum)
					}
					if !res.Verified {
						t.Fatalf("%s tasks=%d: not verified", k.Name, tasks)
					}
					if mode != core.ModeOff && v.Stats().Deadlocks != 0 {
						t.Fatalf("%s tasks=%d: false deadlocks", k.Name, tasks)
					}
				})
			}
		}
	}
}

// TestChecksumsTaskCountInvariant: every kernel must compute the same
// answer regardless of the team size (determinism of the parallelisation).
func TestChecksumsTaskCountInvariant(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			var base float64
			for i, tasks := range []int{1, 3, 4} {
				v := core.New(core.WithMode(core.ModeOff))
				res, err := k.Run(v, Config{Tasks: tasks, Class: 1})
				v.Close()
				if err != nil {
					t.Fatalf("tasks=%d: %v", tasks, err)
				}
				if i == 0 {
					base = res.Checksum
				} else if !almostEqual(res.Checksum, base, 1e-9) {
					t.Fatalf("checksum varies with task count: %g vs %g", res.Checksum, base)
				}
			}
		})
	}
}

// TestSPMDAvoidanceTargetedGate pins the avoidance-mode hot path: every
// block runs a (targeted) check, and an SPMD run reports no false
// deadlocks.
func TestSPMDAvoidanceTargetedGate(t *testing.T) {
	v := core.New(core.WithMode(core.ModeAvoid))
	defer v.Close()
	if _, err := RunCG(v, Config{Tasks: 8, Class: 1}); err != nil {
		t.Fatal(err)
	}
	s := v.Stats()
	if s.Checks == 0 {
		t.Fatal("no checks performed")
	}
	if s.Deadlocks != 0 {
		t.Fatalf("false deadlocks: %+v", s)
	}
}

func TestSolvePentadiagAgainstDense(t *testing.T) {
	// Verify the banded solver against direct substitution.
	n := 12
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%5) - 2
	}
	x := make([]float64, n)
	copy(x, rhs)
	solvePentadiag(x)
	// Check A x = rhs with A's stencil (-1 -1 8 -1 -1).
	for i := 0; i < n; i++ {
		s := 8 * x[i]
		if i >= 2 {
			s -= x[i-2]
		}
		if i >= 1 {
			s -= x[i-1]
		}
		if i+1 < n {
			s -= x[i+1]
		}
		if i+2 < n {
			s -= x[i+2]
		}
		if math.Abs(s-rhs[i]) > 1e-9 {
			t.Fatalf("row %d: A·x = %g, want %g", i, s, rhs[i])
		}
	}
}

func TestSolveBlockTridiagAgainstDense(t *testing.T) {
	n := 9
	rhs := make([][2]float64, n)
	for i := range rhs {
		rhs[i] = [2]float64{float64(i + 1), float64(2*i - 3)}
	}
	x := make([][2]float64, n)
	copy(x, rhs)
	solveBlockTridiag(x)
	// A x: diag block [[4,1],[1,4]], off-diagonal -I.
	for i := 0; i < n; i++ {
		got := [2]float64{
			4*x[i][0] + x[i][1],
			x[i][0] + 4*x[i][1],
		}
		if i > 0 {
			got[0] -= x[i-1][0]
			got[1] -= x[i-1][1]
		}
		if i+1 < n {
			got[0] -= x[i+1][0]
			got[1] -= x[i+1][1]
		}
		for k := 0; k < 2; k++ {
			if math.Abs(got[k]-rhs[i][k]) > 1e-9 {
				t.Fatalf("row %d comp %d: %g want %g", i, k, got[k], rhs[i][k])
			}
		}
	}
}

func TestFFTInverseIdentityAndKnownTransform(t *testing.T) {
	// DC vector: FFT of all-ones is (n, 0, 0, ...).
	n := 16
	a := make([]complex128, n)
	for i := range a {
		a[i] = 1
	}
	fft(a, false)
	if real(a[0]) != float64(n) {
		t.Fatalf("DC bin = %v, want %d", a[0], n)
	}
	for i := 1; i < n; i++ {
		if math.Hypot(real(a[i]), imag(a[i])) > 1e-9 {
			t.Fatalf("bin %d = %v, want 0", i, a[i])
		}
	}
}

func TestSlicePartCoversExactly(t *testing.T) {
	for _, n := range []int{1, 7, 64, 100} {
		for _, tasks := range []int{1, 3, 7, 64} {
			covered := 0
			prevHi := 0
			for id := 0; id < tasks; id++ {
				lo, hi := slicePart(n, id, tasks)
				if lo != prevHi {
					t.Fatalf("gap: n=%d tasks=%d id=%d lo=%d prevHi=%d", n, tasks, id, lo, prevHi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("n=%d tasks=%d: covered %d", n, tasks, covered)
			}
		}
	}
}

func TestTeamRejectsZeroTasks(t *testing.T) {
	v := core.New(core.WithMode(core.ModeOff))
	defer v.Close()
	if _, err := newTeam(v, 0, 1); err == nil {
		t.Fatal("zero-task team accepted")
	}
}

func TestReducerSum(t *testing.T) {
	v := core.New(core.WithMode(core.ModeAvoid))
	defer v.Close()
	h, err := newTeam(v, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	red := newReducer(4, h.phasers[0])
	err = h.run(func(id int, task *core.Task) error {
		for round := 0; round < 10; round++ {
			got, err := red.sum(id, task, float64(id+round))
			if err != nil {
				return err
			}
			want := float64(0+1+2+3) + 4*float64(round)
			if got != want {
				t.Errorf("round %d id %d: sum = %g, want %g", round, id, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
