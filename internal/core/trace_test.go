package core_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/trace"
	"armus/internal/trace/replay"
)

// TestTraceTapRecordsBarrierRound pins the tap's event stream for one
// deterministic two-task barrier round driven from a single goroutine:
// memberships, the signal, the block/unblock pair, and the balance
// invariant (every block eventually cleared, no verdicts).
func TestTraceTapRecordsBarrierRound(t *testing.T) {
	rec := trace.NewRecorder()
	v := core.New(core.WithMode(core.ModeAvoid), core.WithTraceRecorder(rec))
	defer v.Close()

	a := v.NewTask("a")
	b := v.NewTask("b")
	p := v.NewPhaser(a)
	if err := p.Register(a, b); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Advance(a) }()
	for v.State().Len() != 1 { // a arrived and parked awaiting b
		runtime.Gosched()
	}
	if err := p.Advance(b); err != nil { // b arrives; both awaits satisfied
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	events := rec.Trace().Events
	counts := map[trace.Kind]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	if counts[trace.KindRegister] != 2 { // creator + b
		t.Fatalf("recorded %d registers, want 2 (events: %v)", counts[trace.KindRegister], events)
	}
	if counts[trace.KindArrive] != 2 {
		t.Fatalf("recorded %d arrives, want 2", counts[trace.KindArrive])
	}
	if counts[trace.KindBlock] != counts[trace.KindUnblock] {
		t.Fatalf("unbalanced blocks: %d blocks vs %d unblocks",
			counts[trace.KindBlock], counts[trace.KindUnblock])
	}
	if counts[trace.KindBlock] == 0 {
		t.Fatalf("a's park was not recorded")
	}
	if counts[trace.KindVerdict] != 0 {
		t.Fatalf("deadlock-free round recorded %d verdicts", counts[trace.KindVerdict])
	}
	// a's block must record the frozen post-arrival registration vector.
	for _, e := range events {
		if e.Kind == trace.KindBlock && e.Task == a.ID() {
			want := deps.Reg{Phaser: p.ID(), Phase: 1}
			if len(e.Status.Regs) != 1 || e.Status.Regs[0] != want {
				t.Fatalf("a's blocked status regs = %v, want [%v]", e.Status.Regs, want)
			}
		}
	}
}

// TestWithTraceWriterEncodesOnClose: the armus.WithTraceWriter path must
// produce a decodable trace carrying the verifier's mode.
func TestWithTraceWriterEncodesOnClose(t *testing.T) {
	var buf bytes.Buffer
	v := core.New(core.WithMode(core.ModeAvoid), core.WithTraceWriter(&buf))
	a := v.NewTask("a")
	v.NewPhaser(a)
	v.Close()
	tr, err := trace.Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("Close wrote an undecodable trace: %v", err)
	}
	if core.Mode(tr.Mode) != core.ModeAvoid {
		t.Fatalf("trace mode = %v, want avoid", core.Mode(tr.Mode))
	}
	if len(tr.Events) == 0 {
		t.Fatalf("trace is empty")
	}
	v.Close() // idempotent: must not write a second trace
	if _, err := trace.Decode(buf.Bytes()); err != nil {
		t.Fatalf("second Close corrupted the stream: %v", err)
	}
}

// TestReleaseTraceOrder records an avoidance-mode barrier of 4 tasks over 3
// rounds. In each round the first 3 arrivals park and the 4th, which
// completes the phase, clears their statuses. Every Unblock must follow
// that arrival in the trace, and replay.Detect of the trace must reach the
// verdicts recorded: none.
func TestReleaseTraceOrder(t *testing.T) {
	const tasks, rounds = 4, 3
	rec := trace.NewRecorder()
	v := core.New(core.WithMode(core.ModeAvoid), core.WithTraceRecorder(rec))
	defer v.Close()
	ts := make([]*core.Task, tasks)
	for i := range ts {
		ts[i] = v.NewTask("")
	}
	p := v.NewPhaser(ts[0])
	for _, tk := range ts[1:] {
		if err := p.Register(ts[0], tk); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, tk := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := p.Advance(tk); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	tr := rec.Trace()
	arrivals := map[int64]int{} // arrivals recorded so far, by new phase
	awaits := map[deps.TaskID]int64{}
	blocks, unblocks := 0, 0
	for i, e := range tr.Events {
		switch e.Kind {
		case trace.KindArrive:
			arrivals[e.Phase]++
		case trace.KindBlock:
			blocks++
			awaits[e.Task] = e.Status.WaitsFor[0].Phase
		case trace.KindUnblock:
			unblocks++
			if n := awaits[e.Task]; arrivals[n] != tasks {
				t.Fatalf("event %d: task%d's Unblock, awaiting phase %d, follows %d of its %d arrivals",
					i, e.Task, n, arrivals[n], tasks)
			}
		}
	}
	if want := (tasks - 1) * rounds; blocks != want || unblocks != want {
		t.Fatalf("recorded %d blocks and %d unblocks, want %d of each", blocks, unblocks, want)
	}
	res, err := replay.ReplayTrace(tr, replay.Detect, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mutations != 2*blocks || res.DeadlockSteps != 0 || res.Rejections != 0 || res.Reports != 0 {
		t.Fatalf("replay.Detect: %d mutations, %d deadlocked, %d rejections, %d reports; want %d, 0, 0, 0",
			res.Mutations, res.DeadlockSteps, res.Rejections, res.Reports, 2*blocks)
	}
}
