package armus_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"armus"
)

// TestQuickstartFacade runs the documented quick-start flow through the
// public API only.
func TestQuickstartFacade(t *testing.T) {
	v := armus.New(armus.WithMode(armus.ModeAvoid))
	defer v.Close()
	main := v.NewTask("main")
	bar := v.NewPhaser(main)
	worker := v.NewTask("worker")
	if err := bar.Register(main, worker); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- bar.Advance(worker) }()
	if err := bar.Advance(main); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := bar.ObservedPhase(); n != 1 {
		t.Fatalf("observed phase = %d, want 1", n)
	}
}

// TestRunningExampleAvoidanceFacade is the paper's running example via the
// façade: the buggy join deadlocks; avoidance reports it and the program
// recovers.
func TestRunningExampleAvoidanceFacade(t *testing.T) {
	v := armus.New(armus.WithMode(armus.ModeAvoid))
	defer v.Close()
	const workers = 3
	main := v.NewTask("main")
	c := armus.NewClock(v, main) // BUG: main stays registered
	f := armus.NewFinish(v, main)
	for i := 0; i < workers; i++ {
		w := v.NewTask(fmt.Sprintf("w%d", i))
		if err := f.Register(w); err != nil {
			t.Fatal(err)
		}
		if err := c.Register(main, w); err != nil {
			t.Fatal(err)
		}
		go func(w *armus.Task) {
			defer w.Terminate()
			_ = c.Advance(w) // stuck until recovery
		}(w)
	}
	// Wait until all workers are blocked so main's Wait closes the cycle.
	deadline := time.Now().Add(5 * time.Second)
	for v.State().Len() < workers {
		if time.Now().After(deadline) {
			t.Fatal("workers never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	err := f.Wait()
	var de *armus.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Wait = %v, want DeadlockError", err)
	}
	if err := c.Drop(main); err != nil { // recovery: the paper's fix
		t.Fatal(err)
	}
}

func TestClockedVarFacade(t *testing.T) {
	v := armus.New(armus.WithMode(armus.ModeAvoid))
	defer v.Close()
	main := v.NewTask("main")
	cv := armus.NewClockedVar(v, main, 41)
	cv.Set(42)
	if err := cv.Advance(main); err != nil {
		t.Fatal(err)
	}
	if got := cv.Get(); got != 42 {
		t.Fatalf("Get = %d", got)
	}
}

func TestLatchFacade(t *testing.T) {
	v := armus.New(armus.WithMode(armus.ModeDetect), armus.WithPeriod(time.Hour))
	defer v.Close()
	main := v.NewTask("main")
	l := armus.NewCountDownLatch(v, main)
	k := v.NewTask("counter")
	if err := l.Register(main, k); err != nil {
		t.Fatal(err)
	}
	if err := l.Detach(main); err != nil {
		t.Fatal(err)
	}
	var fired atomic.Bool
	go func() {
		time.Sleep(2 * time.Millisecond)
		fired.Store(true)
		_ = l.CountDown(k)
	}()
	if err := l.Await(main); err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("latch released early")
	}
}

func TestDistributedFacade(t *testing.T) {
	srv, err := armus.NewStoreServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := armus.DialStore(srv.Addr())
	defer client.Close()
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
	s1 := armus.NewSite(1, srv.Addr(), armus.WithSitePeriod(5*time.Millisecond))
	defer s1.Close()
	s1.Start()
	// A site with no blocked tasks publishes empty snapshots and finds no
	// deadlock.
	if err := s1.PublishOnce(); err != nil {
		t.Fatal(err)
	}
	cyc, err := s1.CheckOnce()
	if err != nil {
		t.Fatal(err)
	}
	if cyc != nil {
		t.Fatalf("deadlock in idle cluster: %+v", cyc)
	}
}

func TestVerifierGoFacade(t *testing.T) {
	v := armus.New(armus.WithMode(armus.ModeDetect), armus.WithPeriod(time.Hour),
		armus.WithIDBase(500))
	defer v.Close()
	main := v.NewTask("main")
	f := armus.NewFinish(v, main)
	var ran atomic.Int64
	for i := 0; i < 4; i++ {
		if err := f.Spawn("child", func(t *armus.Task) { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 4 {
		t.Fatalf("ran = %d", ran.Load())
	}
	if v.Stats().Deadlocks != 0 {
		t.Fatal("false deadlock")
	}
}

// TestFakeClockFacade steps a detection-mode verifier through the public
// fake-clock API: a deadlocked pair must be reported by one settled scan,
// with no real-time periods involved.
func TestFakeClockFacade(t *testing.T) {
	found := make(chan *armus.DeadlockError, 1)
	fc := armus.NewFakeClock()
	v := armus.New(armus.WithMode(armus.ModeDetect), armus.WithClock(fc),
		armus.WithOnDeadlock(func(e *armus.DeadlockError) {
			select {
			case found <- e:
			default:
			}
		}))
	defer v.Close()
	main := v.NewTask("main")
	p := v.NewPhaser(main)
	w := v.NewTask("w")
	if err := p.Register(main, w); err != nil {
		t.Fatal(err)
	}
	// Both parties await the next phase without arriving: each impedes its
	// own await and the other's, so the report's WFG cycle is one of them
	// alone or both.
	go func() { _ = p.AwaitPhase(w, 1) }()
	go func() { _ = p.AwaitPhase(main, 1) }()
	deadline := time.Now().Add(5 * time.Second)
	for v.State().Len() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("tasks never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	fc.Round()
	select {
	case e := <-found:
		if n := len(e.Cycle.Tasks); n < 1 || n > 2 {
			t.Fatalf("cycle = %+v", e.Cycle)
		}
	default:
		t.Fatal("settled scan did not report")
	}
	// Recovery: drop both parties so Close leaves nothing parked.
	main.Terminate()
	w.Terminate()
}
