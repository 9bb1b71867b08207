package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"armus/internal/clock"
	"armus/internal/deps"
)

func newOff() *Verifier { return New(WithMode(ModeOff)) }

func TestPhaserCreatorRegistered(t *testing.T) {
	v := newOff()
	defer v.Close()
	main := v.NewTask("main")
	p := v.NewPhaser(main)
	if n := p.NumMembers(); n != 1 {
		t.Fatalf("NumMembers = %d, want 1", n)
	}
	ph, ok := p.Phase(main)
	if !ok || ph != 0 {
		t.Fatalf("Phase = %d,%v want 0,true", ph, ok)
	}
}

func TestArriveAdvancesOwnPhase(t *testing.T) {
	v := newOff()
	defer v.Close()
	main := v.NewTask("main")
	p := v.NewPhaser(main)
	n, err := p.Arrive(main)
	if err != nil || n != 1 {
		t.Fatalf("Arrive = %d,%v", n, err)
	}
	// Sole member: its own arrival advances the observed phase.
	if got := p.ObservedPhase(); got != 1 {
		t.Fatalf("ObservedPhase = %d, want 1", got)
	}
	// Await of an already-observed phase must not block.
	if err := p.AwaitPhase(main, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterInheritsPhase(t *testing.T) {
	v := newOff()
	defer v.Close()
	main := v.NewTask("main")
	p := v.NewPhaser(main)
	for i := 0; i < 3; i++ {
		if _, err := p.Arrive(main); err != nil {
			t.Fatal(err)
		}
	}
	child := v.NewTask("child")
	if err := p.Register(main, child); err != nil {
		t.Fatal(err)
	}
	ph, ok := p.Phase(child)
	if !ok || ph != 3 {
		t.Fatalf("child phase = %d,%v want 3,true", ph, ok)
	}
}

func TestRegisterErrors(t *testing.T) {
	v := newOff()
	defer v.Close()
	main := v.NewTask("main")
	other := v.NewTask("other")
	p := v.NewPhaser(main)
	if err := p.Register(other, v.NewTask("x")); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("Register by non-member: %v", err)
	}
	if err := p.Register(main, main); !errors.Is(err, ErrAlreadyRegistered) {
		t.Fatalf("double Register: %v", err)
	}
	if _, err := p.Arrive(other); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("Arrive by non-member: %v", err)
	}
	if err := p.AwaitAdvance(other); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("AwaitAdvance by non-member: %v", err)
	}
	if err := p.Advance(other); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("Advance by non-member: %v", err)
	}
	if err := p.Deregister(other); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("Deregister by non-member: %v", err)
	}
}

// TestCyclicBarrierLockstep runs N workers through J barrier rounds and
// checks that no worker ever observes a stale neighbour value: classic
// stepwise synchronisation correctness.
func TestCyclicBarrierLockstep(t *testing.T) {
	for _, mode := range []Mode{ModeOff, ModeDetect, ModeAvoid} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			v := New(WithMode(mode), WithPeriod(5*time.Millisecond))
			defer v.Close()
			const N, J = 8, 50
			main := v.NewTask("main")
			p := v.NewPhaser(main)
			round := make([]int64, N) // round[i] = completed iterations of worker i
			var wg sync.WaitGroup
			children := make([]*Task, N)
			for i := 0; i < N; i++ {
				children[i] = v.NewTask(fmt.Sprintf("w%d", i))
				if err := p.Register(main, children[i]); err != nil {
					t.Fatal(err)
				}
			}
			// The parent must not stay registered (that is the paper's
			// deadlock!) — drop it before the workers start looping.
			if err := p.Deregister(main); err != nil {
				t.Fatal(err)
			}
			errs := make(chan error, N)
			for i := 0; i < N; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					me := children[i]
					for j := 0; j < J; j++ {
						if err := p.Advance(me); err != nil {
							errs <- err
							return
						}
						// After the barrier every worker has finished j
						// iterations: check the left neighbour.
						l := atomic.LoadInt64(&round[(i+N-1)%N])
						if l < int64(j) {
							errs <- fmt.Errorf("worker %d round %d saw neighbour at %d", i, j, l)
							return
						}
						atomic.StoreInt64(&round[i], int64(j+1))
						if err := p.Advance(me); err != nil {
							errs <- err
							return
						}
					}
					if err := p.Deregister(me); err != nil {
						errs <- err
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if s := v.Stats(); mode != ModeOff && s.Deadlocks != 0 {
				t.Fatalf("false deadlocks reported: %d", s.Deadlocks)
			}
		})
	}
}

// TestJoinBarrier reproduces the finish/join pattern: children deregister
// on completion; the parent awaits its own advanced phase.
func TestJoinBarrier(t *testing.T) {
	v := New(WithMode(ModeAvoid))
	defer v.Close()
	main := v.NewTask("main")
	pb := v.NewPhaser(main)
	const N = 6
	var completed atomic.Int64
	for i := 0; i < N; i++ {
		child := v.NewTask(fmt.Sprintf("c%d", i))
		if err := pb.Register(main, child); err != nil {
			t.Fatal(err)
		}
		go func(me *Task) {
			time.Sleep(time.Millisecond)
			completed.Add(1)
			if err := pb.ArriveAndDeregister(me); err != nil {
				t.Error(err)
			}
		}(child)
	}
	if _, err := pb.Arrive(main); err != nil {
		t.Fatal(err)
	}
	if err := pb.AwaitAdvance(main); err != nil {
		t.Fatal(err)
	}
	if got := completed.Load(); got != N {
		t.Fatalf("join released before all children finished: %d/%d", got, N)
	}
}

// TestSplitPhase exercises arrive-now-await-later: the fuzzy barrier that
// X10/HJ/Java all support and that MPI calls a non-blocking collective.
func TestSplitPhase(t *testing.T) {
	v := New(WithMode(ModeAvoid))
	defer v.Close()
	main := v.NewTask("main")
	p := v.NewPhaser(main)
	other := v.NewTask("other")
	if err := p.Register(main, other); err != nil {
		t.Fatal(err)
	}
	var stage atomic.Int64
	done := make(chan error, 1)
	go func() {
		// Initiate the synchronisation, do local work, then complete it.
		if _, err := p.Arrive(other); err != nil {
			done <- err
			return
		}
		stage.Store(1) // work concurrent with the barrier
		if err := p.AwaitAdvance(other); err != nil {
			done <- err
			return
		}
		done <- nil
	}()
	if err := p.Advance(main); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if stage.Load() != 1 {
		t.Fatal("split-phase work did not run")
	}
}

// TestAwaitFuturePhase is the HJ producer-consumer pattern: the consumer
// awaits phase 3 directly while the producer advances one phase at a time.
func TestAwaitFuturePhase(t *testing.T) {
	v := New(WithMode(ModeDetect), WithPeriod(5*time.Millisecond))
	defer v.Close()
	main := v.NewTask("producer")
	p := v.NewPhaser(main)
	got := make(chan error, 1)
	consumer := v.NewTask("consumer") // pure observer: not registered
	go func() { got <- p.AwaitPhase(consumer, 3) }()
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond)
		if _, err := p.Arrive(main); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never observed phase 3")
	}
}

// TestDeregisterUnblocksWaiters checks the dynamic-membership fix from the
// paper's running example: the stuck parent deregisters (c.drop()) and the
// workers proceed.
func TestDeregisterUnblocksWaiters(t *testing.T) {
	v := New(WithMode(ModeDetect), WithPeriod(time.Hour)) // no auto-report
	defer v.Close()
	main := v.NewTask("main")
	p := v.NewPhaser(main)
	w := v.NewTask("w")
	if err := p.Register(main, w); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Advance(w) }()
	time.Sleep(10 * time.Millisecond) // let w block (parent never arrives)
	select {
	case err := <-done:
		t.Fatalf("worker advanced without parent: %v", err)
	default:
	}
	if err := p.Deregister(main); err != nil { // the c.drop() fix
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// runningExampleAvoid builds the paper's running example (Figures 1-3) and
// returns the error the parent receives at the join barrier.
func TestAvoidanceCatchesRunningExample(t *testing.T) {
	v := New(WithMode(ModeAvoid))
	defer v.Close()
	const I, J = 3, 4
	main := v.NewTask("main")
	pc := v.NewPhaser(main) // cyclic barrier — parent registered: the bug
	pb := v.NewPhaser(main) // join barrier
	var wg sync.WaitGroup
	workerErrs := make(chan error, I*2*J)
	for i := 0; i < I; i++ {
		w := v.NewTask(fmt.Sprintf("worker%d", i))
		if err := pc.Register(main, w); err != nil {
			t.Fatal(err)
		}
		if err := pb.Register(main, w); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(me *Task) {
			defer wg.Done()
			defer me.Terminate()
			for j := 0; j < J; j++ {
				if err := pc.Advance(me); err != nil {
					workerErrs <- err
					return
				}
				if err := pc.Advance(me); err != nil {
					workerErrs <- err
					return
				}
			}
		}(w)
	}
	// Parent goes straight to the join barrier WITHOUT dropping pc: the
	// workers are stuck on pc's first phase, so this await would deadlock.
	// Wait until all workers are blocked so the parent's own await is the
	// operation that closes the cycle (deterministic error placement).
	waitBlocked(t, v, I)
	if _, err := pb.Arrive(main); err != nil {
		t.Fatal(err)
	}
	err := pb.AwaitAdvance(main)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("avoidance did not fire: %v", err)
	}
	if len(de.Cycle.Tasks) == 0 || len(de.Cycle.Resources) == 0 {
		t.Fatalf("empty deadlock report: %+v", de.Cycle)
	}
	// Recovery: terminate the parent's memberships; workers then finish.
	main.Terminate()
	wg.Wait()
	close(workerErrs)
	for e := range workerErrs {
		var wde *DeadlockError
		if !errors.As(e, &wde) {
			t.Fatalf("worker failed with non-deadlock error: %v", e)
		}
	}
}

// TestDetectionCatchesRunningExample runs the same buggy program in
// detection mode with the scan loop stepped by a fake clock: once every
// task is blocked, one settled scan must deliver the report — no periods,
// no report-wait timeout.
func TestDetectionCatchesRunningExample(t *testing.T) {
	found := make(chan *DeadlockError, 4)
	fc := clock.NewFake()
	v := New(WithMode(ModeDetect), WithClock(fc),
		WithOnDeadlock(func(e *DeadlockError) {
			select {
			case found <- e:
			default:
			}
		}))
	defer v.Close()
	const I = 3
	main := v.NewTask("main")
	pc := v.NewPhaser(main)
	pb := v.NewPhaser(main)
	for i := 0; i < I; i++ {
		w := v.NewTask(fmt.Sprintf("worker%d", i))
		if err := pc.Register(main, w); err != nil {
			t.Fatal(err)
		}
		if err := pb.Register(main, w); err != nil {
			t.Fatal(err)
		}
		go func(me *Task) {
			_ = pc.Advance(me) // sticks: parent never arrives
		}(w)
	}
	go func() {
		_, _ = pb.Arrive(main)
		_ = pb.AwaitAdvance(main) // sticks: workers never deregister
	}()
	waitBlocked(t, v, I+1)
	fc.Round() // one completed scan over the fully blocked state
	select {
	case e := <-found:
		if len(e.Cycle.Tasks) < 2 {
			t.Fatalf("cycle too small: %+v", e.Cycle)
		}
	default:
		t.Fatal("settled scan did not report the deadlock")
	}
	// Recover so Close doesn't leave goroutines blocked forever.
	main.Terminate()
}

// TestAvoidSelfDeadlock: a registered party awaiting a future phase it can
// no longer arrive at deadlocks on itself; avoidance must refuse.
func TestAvoidSelfDeadlock(t *testing.T) {
	v := New(WithMode(ModeAvoid))
	defer v.Close()
	main := v.NewTask("main")
	p := v.NewPhaser(main)
	err := p.AwaitPhase(main, 2)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("self-deadlock not avoided: %v", err)
	}
	// The failing task was deregistered, so a retry as observer succeeds
	// (no members left => every await satisfied).
	if err := p.AwaitPhase(main, 2); err != nil {
		t.Fatalf("await after deregistration: %v", err)
	}
}

// TestRegisterBlockedTaskRefreshesStatus: registering a currently-blocked
// task with a new phaser must immediately expose the new impedes
// dependency to the checker.
func TestRegisterBlockedTaskRefreshesStatus(t *testing.T) {
	v := New(WithMode(ModeDetect), WithPeriod(time.Hour))
	defer v.Close()
	main := v.NewTask("main")
	pa := v.NewPhaser(main)
	a := v.NewTask("a")
	if err := pa.Register(main, a); err != nil {
		t.Fatal(err)
	}
	if err := pa.Deregister(main); err != nil {
		t.Fatal(err)
	}
	// a blocks on pa phase 1 (it is the only member after arriving, so to
	// keep it blocked give pa a second laggard member).
	lag := v.NewTask("lag")
	if err := pa.Register(a, lag); err != nil {
		t.Fatal(err)
	}
	go func() { _ = pa.Advance(a) }()
	waitBlocked(t, v, 1)
	if e := v.CheckNow(); e != nil {
		t.Fatalf("premature deadlock: %v", e)
	}
	// Now: lag blocks on a NEW phaser pb whose laggard is main (main is
	// runnable, so there is no cycle yet). Registering the blocked task a
	// with pb at phase 0 — done by a third party — closes the cycle
	// a <-> lag, which is only visible if a's published status was
	// refreshed with the new registration.
	pb := v.NewPhaser(main)
	if err := pb.Register(main, lag); err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _ = pb.Arrive(lag)
		_ = pb.AwaitAdvance(lag)
	}()
	waitBlocked(t, v, 2)
	if e := v.CheckNow(); e != nil {
		t.Fatalf("cycle before registration: %v", e)
	}
	if err := pb.Register(main, a); err != nil { // third party registers blocked task
		t.Fatal(err)
	}
	if e := v.CheckNow(); e == nil {
		t.Fatal("registration of blocked task not reflected in analysis")
	}
	// Unstick everything for cleanup: remove the laggards.
	_ = pb.Deregister(a)
	_ = pb.Deregister(main)
	_ = pa.Deregister(lag)
}

func waitBlocked(t *testing.T, v *Verifier, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for v.State().Len() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d tasks blocked, want %d", v.State().Len(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRegisterRacingBlockIsNotLost: a third party's Register of a task
// that is blocking, racing the block, is never lost. T arrives on p and
// blocks behind R while R registers T with p2. Whichever lands first, once
// T is parked the state holds T's Registrations(), and R's Advance on p2,
// which closes T → R → T, is refused. A status built before the Register
// and written after it would miss T's registration on p2 and let R park
// in a real deadlock.
func TestRegisterRacingBlockIsNotLost(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 50
	}
	for i := 0; i < iters; i++ {
		v := New(WithMode(ModeAvoid))
		T, R := v.NewTask("T"), v.NewTask("R")
		p := v.NewPhaser(T)
		if err := p.Register(T, R); err != nil {
			t.Fatal(err)
		}
		p2 := v.NewPhaser(R)
		parked := make(chan error, 1)
		go func() { parked <- p.Advance(T) }()
		time.Sleep(time.Duration(i%8) * 25 * time.Microsecond) // spread where the Register lands
		if err := p2.Register(R, T); err != nil {
			t.Fatal(err)
		}
		waitBlocked(t, v, 1)
		var got []deps.Reg
		for _, b := range v.State().Snapshot() {
			if b.Task == T.ID() {
				got = slices.SortedFunc(slices.Values(b.Regs), func(a, b deps.Reg) int { return cmp.Compare(a.Phaser, b.Phaser) })
			}
		}
		if want := T.Registrations(); !slices.Equal(got, want) {
			t.Fatalf("iteration %d: the state holds T's registrations as %v, T has %v", i, got, want)
		}
		gated := make(chan error, 1)
		go func() { gated <- p2.Advance(R) }()
		select {
		case err := <-gated:
			var de *DeadlockError
			if !errors.As(err, &de) {
				t.Fatalf("iteration %d: R's Advance closing T → R → T returned %v, want *DeadlockError", i, err)
			}
		case <-time.After(5 * time.Second):
			_ = p2.Deregister(T) // let R through before failing
			<-gated
			t.Fatalf("iteration %d: R's Advance closing T → R → T was admitted and parked", i)
		}
		if err := p.Deregister(R); err != nil { // the refused R leaves p too: T goes on
			t.Fatal(err)
		}
		if err := <-parked; err != nil {
			t.Fatalf("iteration %d: T's Advance: %v", i, err)
		}
		v.Close()
	}
}

func TestTerminateDeregistersEverything(t *testing.T) {
	v := newOff()
	defer v.Close()
	main := v.NewTask("main")
	p1 := v.NewPhaser(main)
	p2 := v.NewPhaser(main)
	child := v.NewTask("child")
	if err := p1.Register(main, child); err != nil {
		t.Fatal(err)
	}
	if err := p2.Register(main, child); err != nil {
		t.Fatal(err)
	}
	child.Terminate()
	if p1.NumMembers() != 1 || p2.NumMembers() != 1 {
		t.Fatalf("Terminate left memberships: %d, %d", p1.NumMembers(), p2.NumMembers())
	}
	child.Terminate() // idempotent
	if len(child.Registrations()) != 0 {
		t.Fatal("registration vector not empty after Terminate")
	}
}

func TestGoAutoTerminates(t *testing.T) {
	v := New(WithMode(ModeDetect), WithPeriod(time.Hour))
	defer v.Close()
	main := v.NewTask("main")
	p := v.NewPhaser(main)
	ran := make(chan *Task, 1)
	done := v.Go("child", func(t *Task) {
		if err := p.Register(t, t); err == nil {
			panic("self-register by non-member succeeded")
		}
		ran <- t
	})
	<-done
	child := <-ran
	if len(child.Registrations()) != 0 {
		t.Fatal("Go did not terminate the task")
	}
	if child.Name() != "child" {
		t.Fatalf("Name = %q", child.Name())
	}
}

func TestStatsCounting(t *testing.T) {
	v := New(WithMode(ModeAvoid))
	defer v.Close()
	main := v.NewTask("main")
	p := v.NewPhaser(main)
	w := v.NewTask("w")
	if err := p.Register(main, w); err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Advance(w) }()
	waitBlocked(t, v, 1)
	s := v.Stats()
	if s.Checks == 0 {
		t.Fatal("avoidance performed no checks")
	}
	if s.Blocks == 0 {
		t.Fatal("no blocks counted")
	}
	if s.Deadlocks != 0 {
		t.Fatalf("false deadlocks: %d", s.Deadlocks)
	}
	_ = p.Deregister(main)
	if got := v.Stats().AvgEdges(); got < 0 {
		t.Fatalf("AvgEdges = %v", got)
	}
	if (Stats{}).AvgEdges() != 0 {
		t.Fatal("AvgEdges of zero stats should be 0")
	}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{
		ModeOff: "off", ModeDetect: "detect", ModeAvoid: "avoid",
		Mode(9): "mode(9)",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Fatalf("Mode.String() = %q want %q", m.String(), want)
		}
	}
}

func TestDeadlockErrorMessage(t *testing.T) {
	e := &DeadlockError{
		Cycle: &deps.Cycle{
			Model:     deps.ModelWFG,
			Tasks:     []deps.TaskID{1, 2},
			Resources: []deps.Resource{{Phaser: 7, Phase: 3}},
		},
		TaskNames: map[deps.TaskID]string{1: "alpha"},
	}
	msg := e.Error()
	for _, want := range []string{"alpha", "task2", "phaser7@3", "wfg"} {
		if !contains(msg, want) {
			t.Fatalf("error message %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCloseIdempotent(t *testing.T) {
	v := New(WithMode(ModeDetect), WithPeriod(time.Millisecond))
	v.Close()
	v.Close()
	// Off-mode verifier has no detector; Close must still be safe.
	v2 := newOff()
	v2.Close()
}

func TestWithIDBase(t *testing.T) {
	v1 := New(WithMode(ModeOff), WithIDBase(1_000_000))
	defer v1.Close()
	t1 := v1.NewTask("x")
	if t1.ID() <= 1_000_000 {
		t.Fatalf("task ID %d not offset", t1.ID())
	}
	p := v1.NewPhaser(t1)
	if p.ID() <= 1_000_000 {
		t.Fatalf("phaser ID %d not offset", p.ID())
	}
}

// TestManyBarriersStress drives several phasers from several tasks with
// membership churn under detection mode; run with -race.
func TestManyBarriersStress(t *testing.T) {
	v := New(WithMode(ModeDetect), WithPeriod(time.Millisecond))
	defer v.Close()
	const N, J = 8, 30
	main := v.NewTask("main")
	p1 := v.NewPhaser(main)
	p2 := v.NewPhaser(main)
	tasks := make([]*Task, N)
	for i := range tasks {
		tasks[i] = v.NewTask(fmt.Sprintf("t%d", i))
		if err := p1.Register(main, tasks[i]); err != nil {
			t.Fatal(err)
		}
		if err := p2.Register(main, tasks[i]); err != nil {
			t.Fatal(err)
		}
	}
	_ = p1.Deregister(main)
	_ = p2.Deregister(main)
	var wg sync.WaitGroup
	for i := range tasks {
		wg.Add(1)
		go func(me *Task) {
			defer wg.Done()
			defer me.Terminate()
			for j := 0; j < J; j++ {
				if err := p1.Advance(me); err != nil {
					t.Error(err)
					return
				}
				if err := p2.Advance(me); err != nil {
					t.Error(err)
					return
				}
			}
		}(tasks[i])
	}
	wg.Wait()
	if got := v.Stats().Deadlocks; got != 0 {
		t.Fatalf("false deadlocks under stress: %d", got)
	}
}

func BenchmarkAdvanceUnchecked(b *testing.B) {
	benchAdvance(b, ModeOff)
}

func BenchmarkAdvanceDetect(b *testing.B) {
	benchAdvance(b, ModeDetect)
}

func BenchmarkAdvanceAvoid(b *testing.B) {
	benchAdvance(b, ModeAvoid)
}

// benchAdvance measures the cost of a 4-task barrier round trip.
func benchAdvance(b *testing.B, mode Mode) {
	v := New(WithMode(mode))
	defer v.Close()
	const N = 4
	main := v.NewTask("main")
	p := v.NewPhaser(main)
	tasks := make([]*Task, N)
	for i := range tasks {
		tasks[i] = v.NewTask(fmt.Sprintf("t%d", i))
		if err := p.Register(main, tasks[i]); err != nil {
			b.Fatal(err)
		}
	}
	_ = p.Deregister(main)
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(me *Task) {
			defer wg.Done()
			for j := 0; j < b.N; j++ {
				if err := p.Advance(me); err != nil {
					b.Error(err)
					return
				}
			}
		}(tasks[i])
	}
	wg.Wait()
}

// refreshDeadlock builds, in avoidance mode, a deadlock that no gate sees:
// a blocks on q@1 (impeded by b), b blocks on r@1 (impeded by c), and then
// c registers the blocked a with r, so that a impedes r@1 as well. The
// returned release unsticks everything and waits for a and b to return; a
// test that fails leaves them stuck rather than risk hanging on a runtime
// lock.
func refreshDeadlock(t *testing.T, v *Verifier) (a, b, c *Task, q, r *Phaser, release func()) {
	t.Helper()
	a, b, c = v.NewTask("a"), v.NewTask("b"), v.NewTask("c")
	q, r = v.NewPhaser(a), v.NewPhaser(b)
	if err := q.Register(a, b); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(b, c); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, 2)
	go func() { _ = q.Advance(a); a.Terminate(); done <- struct{}{} }()
	waitBlocked(t, v, 1)
	go func() { _ = r.Advance(b); b.Terminate(); done <- struct{}{} }()
	waitBlocked(t, v, 2)
	return a, b, c, q, r, func() {
		a.Terminate()
		c.Terminate()
		<-done
		<-done
	}
}

// TestAvoidRefreshDeadlockReported: in avoidance mode a deadlock closed by a
// third party's Register, around tasks that already passed their gates, is
// reported by that Register call — not only when some later task happens to
// pass a gate, and not never.
func TestAvoidRefreshDeadlockReported(t *testing.T) {
	reports := make(chan *DeadlockError, 16)
	v := New(WithMode(ModeAvoid), WithOnDeadlock(func(e *DeadlockError) {
		select {
		case reports <- e:
		default:
		}
	}))
	defer v.Close()
	a, b, c, _, r, release := refreshDeadlock(t, v)
	if err := r.Register(c, a); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-reports:
		if got := fmt.Sprint(e.Cycle.Tasks); got != fmt.Sprint([]deps.TaskID{a.ID(), b.ID()}) &&
			got != fmt.Sprint([]deps.TaskID{b.ID(), a.ID()}) {
			t.Fatalf("reported cycle %v, want a and b", e.Cycle.Tasks)
		}
	default:
		t.Fatalf("Register closed a deadlock (CheckNow: %v) and returned without reporting it", v.CheckNow())
	}
	if _, err := r.Arrive(c); err != nil {
		t.Fatal(err)
	}
	if e := v.CheckNow(); e == nil {
		t.Fatal("CheckNow does not see the deadlock")
	}
	if s := v.Stats(); s.Deadlocks != 1 {
		t.Fatalf("Stats().Deadlocks = %d, want 1", s.Deadlocks)
	}
	release()
}

// TestOnDeadlockHandlerMayUsePhasers: the report is delivered with no
// phaser, task or verifier lock held, so a handler may read the phasers
// involved — also when the next task to block is gated on the same phaser.
func TestOnDeadlockHandlerMayUsePhasers(t *testing.T) {
	var r *Phaser
	members := make(chan int, 16)
	v := New(WithMode(ModeAvoid), WithOnDeadlock(func(e *DeadlockError) {
		select {
		case members <- r.NumMembers():
		default:
		}
	}))
	defer v.Close()
	a, _, c, _, r0, release := refreshDeadlock(t, v)
	r = r0
	if err := r.Register(c, a); err != nil {
		t.Fatal(err)
	}
	// c gates on r next, behind a: the gate admits it, since no cycle passes
	// through c.
	go func() { _ = r.Advance(c) }()
	select {
	case n := <-members:
		if n != 3 {
			t.Fatalf("handler read %d members of r, want 3", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no report within 2 s: the handler is blocked on a lock the runtime holds, or never ran")
	}
	release()
}

// TestCheckNowAfterDirectStateWrites: statuses written through State(),
// behind the engine's back — the repository benchmark's verifier rung does
// this — are seen by the next CheckNow, as the cycle they close and as its
// dissolution.
func TestCheckNowAfterDirectStateWrites(t *testing.T) {
	v := New(WithMode(ModeObserve))
	defer v.Close()
	a := deps.Blocked{Task: 1, WaitsFor: []deps.Resource{{Phaser: 1, Phase: 1}}, Regs: []deps.Reg{{Phaser: 2, Phase: 0}}}
	b := deps.Blocked{Task: 2, WaitsFor: []deps.Resource{{Phaser: 2, Phase: 1}}, Regs: []deps.Reg{{Phaser: 1, Phase: 0}}}
	v.State().SetBlocked(a)
	if e := v.CheckNow(); e != nil {
		t.Fatalf("CheckNow() = %v with one task blocked", e)
	}
	v.State().SetBlocked(b)
	if e := v.CheckNow(); e == nil || len(e.Cycle.Tasks) != 2 {
		t.Fatalf("CheckNow() = %v, want the cycle of tasks 1 and 2", e)
	}
	v.State().Clear(b.Task)
	if e := v.CheckNow(); e != nil {
		t.Fatalf("CheckNow() = %v after the cycle was cleared", e)
	}
}
