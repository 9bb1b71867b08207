// Package course implements the five educational programs of §6.3 (Figures
// 8-9 and Table 3), taken from Columbia's Principles and Practice of
// Parallel Programming course: SE, FI, FR, BFS and PS. Unlike the SPMD
// kernels, these spawn tasks and create barriers as the computation grows,
// which is exactly what stresses the choice of graph model:
//
//	SE  — task per prime, clocked variable per task (tasks ≈ resources)
//	FI  — iterative Fibonacci over an array of clocked variables
//	FR  — recursive Fibonacci, a task + clocked variable per call
//	      (resources ≫ tasks)
//	BFS — task per visited node, barrier per depth level (tasks ≫ resources)
//	PS  — prefix sum, all tasks stepwise on ONE global barrier
//	      (tasks ≫ resources; the paper's WFG worst case: 781 edges vs 6)
package course

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"armus/internal/clocked"
	"armus/internal/core"
	"armus/internal/trace"
)

// Config scales a program.
type Config struct {
	// Size is the program's natural size parameter: number of Fibonacci
	// entries (FI), recursion argument (FR), sieve bound (SE), node count
	// (BFS), or task count (PS).
	Size int
}

// Result reports a run.
type Result struct {
	Checksum float64
	Verified bool
}

// ErrValidation is returned when a program's self-check fails.
var ErrValidation = errors.New("course: verification failed")

// Program names a runnable benchmark.
type Program struct {
	Name string
	Run  func(v *core.Verifier, cfg Config) (Result, error)
}

// Record runs p once under a verifier in mode that records its trace, and
// returns the run's state mutations: every status set and cleared, in the
// order the verifier saw them — the states a full check could run on.
func (p Program) Record(mode core.Mode, size int) ([]trace.Event, error) {
	rec := trace.NewRecorder()
	v := core.New(core.WithMode(mode), core.WithTraceRecorder(rec))
	_, err := p.Run(v, Config{Size: size})
	v.Close()
	if err != nil {
		return nil, err
	}
	return slices.DeleteFunc(rec.Trace().Events, func(e trace.Event) bool { return !e.IsMutation() }), nil
}

// Programs lists the benchmarks in the order of Table 3.
func Programs() []Program {
	return []Program{
		{"SE", RunSE},
		{"FI", RunFI},
		{"FR", RunFR},
		{"BFS", RunBFS},
		{"PS", RunPS},
	}
}

// RunFI computes Fibonacci numbers iteratively with a shared array of
// clocked variables: task i produces entry i and synchronises with tasks
// i+1 and i+2, which read it.
func RunFI(v *core.Verifier, cfg Config) (Result, error) {
	n := cfg.Size
	if n < 3 {
		n = 3
	}
	main := v.NewTask("fi-main")
	defer main.Terminate()
	vars := make([]*clocked.Var[uint64], n)
	tasks := make([]*core.Task, n)
	for i := range vars {
		vars[i] = clocked.New[uint64](v, main, 0)
	}
	// Task i is registered with its own variable (producer) and with the
	// two variables it consumes.
	for i := range tasks {
		tasks[i] = v.NewTask(fmt.Sprintf("fi-%d", i))
		if err := vars[i].Register(main, tasks[i]); err != nil {
			return Result{}, err
		}
		for _, j := range []int{i - 1, i - 2} {
			if j >= 0 {
				if err := vars[j].Register(main, tasks[i]); err != nil {
					return Result{}, err
				}
			}
		}
	}
	// The driver must not hold up any clock (the running example's bug).
	for i := range vars {
		if err := vars[i].Drop(main); err != nil {
			return Result{}, err
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	results := make([]uint64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int, me *core.Task) {
			defer wg.Done()
			defer me.Terminate()
			var a, b uint64
			// Consume lower-index variables in index order: the globally
			// consistent acquisition order that keeps the pipeline
			// deadlock-free.
			if i >= 2 {
				if err := vars[i-2].Advance(me); err != nil {
					errs <- err
					return
				}
				a = vars[i-2].Get()
			}
			if i >= 1 {
				if err := vars[i-1].Advance(me); err != nil {
					errs <- err
					return
				}
				b = vars[i-1].Get()
			}
			var fib uint64
			switch i {
			case 0:
				fib = 0
			case 1:
				fib = 1
			default:
				fib = a + b
			}
			results[i] = fib
			vars[i].Set(fib)
			if err := vars[i].Advance(me); err != nil {
				errs <- err
				return
			}
		}(i, tasks[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return Result{}, err
	}
	// Verify against the closed-form iteration.
	var x, y uint64 = 0, 1
	sum := 0.0
	ok := true
	for i := 0; i < n; i++ {
		if results[i] != x {
			ok = false
		}
		sum += float64(results[i] % 1000)
		x, y = y, x+y
	}
	res := Result{Checksum: sum, Verified: ok}
	if !ok {
		return res, ErrValidation
	}
	return res, nil
}

// RunFR computes Fibonacci recursively: every call runs in its own task,
// and a clocked variable synchronises the caller with the callee (the
// future pattern of §2.2 — as many join barriers as tasks).
func RunFR(v *core.Verifier, cfg Config) (Result, error) {
	k := cfg.Size
	if k > 14 {
		k = 14 // 2^14 tasks is plenty of stress
	}
	main := v.NewTask("fr-main")
	defer main.Terminate()

	var spawn func(parent *core.Task, k int) (*clocked.Var[uint64], error)
	spawn = func(parent *core.Task, k int) (*clocked.Var[uint64], error) {
		cv := clocked.New[uint64](v, parent, 0)
		child := v.NewTask(fmt.Sprintf("fr-%d", k))
		if err := cv.Register(parent, child); err != nil {
			return nil, err
		}
		go func() {
			defer child.Terminate()
			var val uint64
			if k < 2 {
				val = uint64(k)
			} else {
				l, err := spawn(child, k-1)
				if err != nil {
					return
				}
				r, err := spawn(child, k-2)
				if err != nil {
					return
				}
				if err := l.Advance(child); err != nil {
					return
				}
				a := l.Get()
				if err := l.Drop(child); err != nil {
					return
				}
				if err := r.Advance(child); err != nil {
					return
				}
				b := r.Get()
				if err := r.Drop(child); err != nil {
					return
				}
				val = a + b
			}
			cv.Set(val)
			_ = cv.Advance(child) // publish; Terminate deregisters
		}()
		return cv, nil
	}

	root, err := spawn(main, k)
	if err != nil {
		return Result{}, err
	}
	if err := root.Advance(main); err != nil {
		return Result{}, err
	}
	got := root.Get()
	if err := root.Drop(main); err != nil {
		return Result{}, err
	}
	var x, y uint64 = 0, 1
	for i := 0; i < k; i++ {
		x, y = y, x+y
	}
	res := Result{Checksum: float64(got % 1_000_000), Verified: got == x}
	if !res.Verified {
		return res, ErrValidation
	}
	return res, nil
}
