package client_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/server/proto"
	"armus/internal/trace"
)

// TestConnectionIsTraceByteForByte: what one client connection writes —
// header at Dial, slabs of in-place-encoded frames, sentinel and CRC footer
// at Close — is a trace that decodes, event for event, to what the client
// was asked to send, under the handshake label, to a clean CRC-verified end.
// Where no task blocks twice the connection is, byte for byte, trace.Encode
// of the same events: only a re-block differs from a full frame. Every
// corpus trace goes through a recording relay into a real server, which must
// read each connection to a clean, CRC-verified end.
func TestConnectionIsTraceByteForByte(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/corpus/*.trace")
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus glob: %v (%d files)", err, len(paths))
	}
	streams := map[string][]trace.Event{}
	for _, path := range paths {
		tr, err := trace.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		streams[filepath.Base(path)] = tr.Events
	}
	var once []trace.Event // every task blocks once
	for task := int64(1); task <= 40; task++ {
		once = append(once,
			trace.Event{Kind: trace.KindRegister, Task: deps.TaskID(task), Phaser: 1, Phase: task},
			trace.Event{Kind: trace.KindBlock, Task: deps.TaskID(task), Status: st(task, 1, task+1, 1, task)},
			trace.Event{Kind: trace.KindUnblock, Task: deps.TaskID(task)})
	}
	streams["block-once"] = once
	// A raw block event naming another task than its status (a block frame
	// carries only the status): what follows in the slab must not lean on
	// the SDK's entry for the status's task, which the event left behind.
	streams["raw-other-task"] = []trace.Event{
		{Kind: trace.KindBlock, Task: 1, Status: st(1, 1, 1, 1, 0)},
		{Kind: trace.KindBlock, Task: 2, Status: st(1, 1, 2, 1, 1)},
		{Kind: trace.KindBlock, Task: 1, Status: st(1, 1, 3, 1, 2)},
	}

	s := startServer(t)
	reblocked := false
	for name, events := range streams {
		p := newProxy(t, s.Addr())
		c, err := client.Dial(client.Config{Addr: p.Addr(), Session: "bytes-" + name, Mode: core.ModeDetect})
		if err != nil {
			t.Fatalf("%s: Dial: %v", name, err)
		}
		for i := range events {
			if err := c.Emit(events[i]); err != nil {
				t.Fatalf("%s: emit %d: %v", name, i, err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		want := &trace.Trace{
			Label:  proto.Handshake{Session: "bytes-" + name}.Label(),
			Mode:   uint8(core.ModeDetect),
			Events: events,
		}
		var got *trace.Trace
		waitUntil(t, func() bool {
			got, err = trace.Decode(p.Sent(0))
			return err == nil
		})
		for i := range got.Events {
			if e := &got.Events[i]; e.Kind == trace.KindBlock && i < len(events) {
				e.Task = events[i].Task // a block frame names only its status's task
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the connection decodes to %d events under %q, the client sent %d under %q",
				name, len(got.Events), got.Label, len(events), want.Label)
		}
		var enc bytes.Buffer
		if err := trace.Encode(&enc, want); err != nil {
			t.Fatal(err)
		}
		sent := p.Sent(0)
		reblocked = reblocked || len(sent) < enc.Len()
		if name == "block-once" && !bytes.Equal(sent, enc.Bytes()) {
			t.Errorf("%s: the connection carried %d bytes, trace.Encode of its %d events is %d bytes, and they differ",
				name, len(sent), len(events), enc.Len())
		}
		if c.Reconnects() != 0 {
			t.Errorf("%s: %d reconnects on a healthy relay", name, c.Reconnects())
		}
	}
	if !reblocked {
		t.Error("no corpus connection carried a re-block")
	}
	waitUntil(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
	if m := s.Metrics(); m.MalformedConns.Load() != 0 {
		t.Fatalf("%d connections did not end as valid traces", m.MalformedConns.Load())
	}
}

// reblocksOnWire counts the re-block frames among the whole events data holds
// after a trace header.
func reblocksOnWire(data []byte) int {
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0
	}
	n := 0
	for e := (trace.Event{}); r.NextInto(&e) == nil; {
		if r.Ref() != 0 {
			n++
		}
	}
	return n
}

// pairRound is round r of two tasks on phasers 1 and 2, both registered with
// both: each blocks awaiting its own phaser at phase r, and in every third
// round each still lags the other's phaser, so the two deadlock until they
// unblock. A task's statuses repeat its registrations with phases advanced:
// the shape a re-block carries.
func pairRound(r int64, unblock bool) []trace.Event {
	lag := int64(0)
	if r%3 == 0 {
		lag = 1
	}
	var out []trace.Event
	for task := int64(1); task <= 2; task++ {
		regs := []deps.Reg{{Phaser: 1, Phase: r}, {Phaser: 2, Phase: r}}
		regs[2-task].Phase -= lag // the other task's phaser
		out = append(out, trace.Event{Kind: trace.KindBlock, Task: deps.TaskID(task), Status: deps.Blocked{
			Task: deps.TaskID(task), WaitsFor: []deps.Resource{{Phaser: deps.PhaserID(task), Phase: r}}, Regs: regs}})
	}
	if unblock {
		out = append(out, trace.Event{Kind: trace.KindUnblock, Task: 1}, trace.Event{Kind: trace.KindUnblock, Task: 2})
	}
	return out
}

// TestSeverWithPendingReblocks: the transport dies and, during the outage,
// rounds of re-blocks pile into the pending slab, leaving the session
// deadlocked. The slab goes out on the new connection behind the resync
// head, its re-blocks with it, and every checkpoint — before, right after
// and past the reconnect — answers what it answers on a connection that
// never failed.
func TestSeverWithPendingReblocks(t *testing.T) {
	s := startServer(t)
	p := newProxy(t, s.Addr())
	emit := func(c *client.Client, events []trace.Event) error {
		for _, e := range events {
			if err := c.Emit(e); err != nil {
				return err
			}
		}
		return nil
	}
	var pending []trace.Event
	for r := int64(4); r <= 9; r++ {
		pending = append(pending, pairRound(r, r < 9)...) // round 9 stays deadlocked
	}
	emitted := make(chan error, 1)
	c := outage(t, p, client.Config{Session: "sever-reblocks", Mode: core.ModeDetect}, func(c *client.Client) {
		emitted <- emit(c, pending)
	})
	direct, err := client.Dial(client.Config{Addr: s.Addr(), Session: "unsevered-reblocks", Mode: core.ModeDetect})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	var got, want []bool
	check := func(c *client.Client, into *[]bool) {
		t.Helper()
		d, err := c.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		*into = append(*into, d)
	}
	for r := int64(1); r <= 3; r++ {
		for _, cc := range []struct {
			c    *client.Client
			into *[]bool
		}{{c, &got}, {direct, &want}} {
			if err := emit(cc.c, pairRound(r, false)); err != nil {
				t.Fatal(err)
			}
			check(cc.c, cc.into)
			if err := emit(cc.c, pairRound(r, true)[2:]); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.Sever()
	if err := within(t, "pending emits", emitted); err != nil {
		t.Fatalf("emit during the outage: %v", err)
	}
	if err := emit(direct, pending); err != nil {
		t.Fatal(err)
	}
	check(c, &got)
	check(direct, &want)
	for r := int64(10); r <= 15; r++ {
		for _, cc := range []struct {
			c    *client.Client
			into *[]bool
		}{{c, &got}, {direct, &want}} {
			if err := emit(cc.c, pairRound(r, false)); err != nil {
				t.Fatal(err)
			}
			check(cc.c, cc.into)
			if err := emit(cc.c, pairRound(r, true)[2:]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reflect.DeepEqual(got, want) || !want[2] || !want[3] || want[4] {
		t.Fatalf("checkpoints across the sever %v, on a connection that never failed %v", got, want)
	}
	if n := c.Reconnects(); n != 1 {
		t.Fatalf("reconnects = %d, want 1", n)
	}
	if n := reblocksOnWire(p.Sent(1)); n < len(pending)/4 {
		t.Fatalf("the new connection carried %d re-blocks, want the pending slab's", n)
	}
}

// TestAvoidSlabsCarryNoReblock: in an avoidance session a task's next block
// waits for the gate's answer to its last, so the two never share a slab —
// and a slab holds the whole run a re-block may lean on. However alike its
// statuses, the connection carries full block frames only.
func TestAvoidSlabsCarryNoReblock(t *testing.T) {
	s := startServer(t)
	p := newProxy(t, s.Addr())
	c, err := client.Dial(client.Config{Addr: p.Addr(), Session: "avoid-full", Mode: core.ModeAvoid})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for r := int64(1); r <= 20; r++ {
		for _, e := range pairRound(r, true) {
			if e.Kind != trace.KindBlock {
				err = c.Emit(e)
			} else if err = c.Emit(trace.Event{Kind: trace.KindArrive, Task: e.Task, Phaser: 1, Phase: r}); err == nil {
				// Every third round the second block closes the cycle.
				var ge *client.GateError
				if err = c.Block(e.Status); errors.As(err, &ge) && r%3 == 0 && e.Task == 2 {
					err = nil
				}
			}
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
	}
	if d, err := c.Checkpoint(); err != nil || d {
		t.Fatalf("checkpoint: %v %v", d, err)
	}
	if n := reblocksOnWire(p.Sent(0)); n != 0 {
		t.Fatalf("an avoidance connection carried %d re-blocks", n)
	}
}

// wireEvents decodes as many whole events as data holds after a trace
// header: the view of a connection that is still open.
func wireEvents(data []byte) []string {
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil
	}
	var out []string
	for {
		e, err := r.Next()
		if err != nil {
			return out
		}
		out = append(out, fmt.Sprintf("%v task%d", e.Kind, e.Task))
	}
}

func frameLen(t *testing.T, e trace.Event) int {
	t.Helper()
	f, err := trace.AppendEventFrame(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	return len(f)
}

func expectWire(t *testing.T, p *flakyProxy, conn int, want []string) {
	t.Helper()
	waitUntil(t, func() bool { return len(wireEvents(p.Sent(conn))) >= len(want) })
	got := wireEvents(p.Sent(conn))[:len(want)]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("connection %d, event %d on the wire is %q, want %q\nall: %q", conn, i, got[i], want[i], got)
		}
	}
}

// outage dials through p with an OnDisconnect hook that runs pending (once)
// on the first transport failure. The hook runs on the client's connection
// goroutine BEFORE the first redial, so whatever it emits sits in the
// pending slab across the reconnect — deterministically, no sleeps.
func outage(t *testing.T, p *flakyProxy, cfg client.Config, pending func(*client.Client)) *client.Client {
	t.Helper()
	ready := make(chan *client.Client, 1)
	cfg.Addr = p.Addr()
	cfg.RedialBackoff = 20 * time.Millisecond
	cfg.OnDisconnect = func(error) {
		select {
		case c := <-ready:
			pending(c)
		default:
		}
	}
	c, err := client.Dial(cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	ready <- c
	return c
}

func within[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no answer after the reconnect", what)
		panic("unreachable")
	}
}

// TestSeverWithPendingSlab: the transport dies while a gated block and a
// checkpoint are in flight and events are pending. The new connection
// carries the resync, then the two resends, then the pending slab, in that
// order; both round trips are answered once; and the recycled waiters of
// later round trips carry no stale answer.
func TestSeverWithPendingSlab(t *testing.T) {
	s := startServer(t)
	p := newProxy(t, s.Addr())
	emitted := make(chan error, 1)
	c := outage(t, p, client.Config{Session: "sever-slab", Mode: core.ModeAvoid}, func(c *client.Client) {
		emitted <- errors.Join(
			c.Register(9, 9, 0, 0),
			// A raw block event: gated by the server like any other, its
			// answer has no waiter, and it counts in the gate ordinals.
			c.Emit(trace.Event{Kind: trace.KindBlock, Task: 3, Status: st(3, 7, 1, 6, 0)}),
			c.Arrive(9, 9, 1),
		)
	})
	if err := c.Block(st(1, 2, 1, 1, 0)); err != nil {
		t.Fatalf("block task1: %v", err)
	}
	p.Hold()
	inFlight := len(p.Sent(0)) +
		frameLen(t, trace.Event{Kind: trace.KindBlock, Task: 2, Status: st(2, 3, 1, 2, 0)}) +
		frameLen(t, trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported})
	gate := make(chan error, 1)
	type verdict struct {
		deadlocked bool
		err        error
	}
	check := make(chan verdict, 1)
	go func() { gate <- c.Block(st(2, 3, 1, 2, 0)) }()
	go func() {
		d, err := c.Checkpoint()
		check <- verdict{d, err}
	}()
	waitUntil(t, func() bool { return len(p.Sent(0)) >= inFlight }) // both written, neither answered
	p.Sever()

	if err := within(t, "pending emits", emitted); err != nil {
		t.Fatalf("emit during the outage: %v", err)
	}
	if err := within(t, "gated block", gate); err != nil {
		t.Fatalf("in-flight block: %v, want admitted", err)
	}
	if v := within(t, "checkpoint", check); v.err != nil || v.deadlocked {
		t.Fatalf("in-flight checkpoint: %+v, want not deadlocked", v)
	}
	if n := c.Reconnects(); n != 1 {
		t.Fatalf("reconnects = %d, want 1", n)
	}
	expectWire(t, p, 1, []string{
		"unblock task1", "unblock task3", "block task1", "block task3", // resync; task2 is in flight
		"block task2", "verdict task0", // resends
		"register task9", "block task3", "arrive task9", // the slab that was pending
	})
	select {
	case err := <-gate:
		t.Fatalf("gated block answered twice (second: %v)", err)
	case v := <-check:
		t.Fatalf("checkpoint answered twice (second: %+v)", v)
	default:
	}
	// Recycled waiters start clean, and the session holds what resync and
	// the pending slab asserted: a block closing a cycle with task1 (resync)
	// or task3 (pending) is refused, a harmless one admitted.
	var ge *client.GateError
	if err := c.Block(st(4, 1, 1, 2, 0)); !errors.As(err, &ge) {
		t.Fatalf("block closing a cycle with task1: %v, want *GateError", err)
	}
	if err := c.Block(st(5, 6, 1, 7, 0)); !errors.As(err, &ge) {
		t.Fatalf("block closing a cycle with task3: %v, want *GateError", err)
	}
	if err := c.Block(st(6, 8, 1, 8, 1)); err != nil {
		t.Fatalf("harmless block: %v", err)
	}
	if d, err := c.Checkpoint(); err != nil || d {
		t.Fatalf("final checkpoint: %v %v", d, err)
	}
}

// TestCheckpointUnconfusedAcrossSever: the ordinal pairing of
// TestCheckpointUnconfusedByRawVerdictEvents restarts with the connection.
// One checkpoint is in flight at the sever (resent as verdict 1 of the new
// connection); during the outage three raw verdict events and a second
// checkpoint join the pending slab, bracketed by an unblock and a re-block
// so the raw verdicts' answers (not deadlocked) differ from the
// checkpoints' (deadlocked). An ordinal not rebased at the swap pairs the
// second checkpoint with a raw verdict's answer.
func TestCheckpointUnconfusedAcrossSever(t *testing.T) {
	s := startServer(t)
	p := newProxy(t, s.Addr())
	type verdict struct {
		deadlocked bool
		err        error
	}
	emitted := make(chan error, 1)
	second := make(chan verdict, 1)
	c := outage(t, p, client.Config{Session: "sever-verdicts", Mode: core.ModeDetect}, func(c *client.Client) {
		errs := []error{c.Unblock(1)}
		for i := 0; i < 3; i++ {
			errs = append(errs, c.Emit(trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported}))
		}
		errs = append(errs, c.Block(st(1, 1, 1, 2, 0)))
		emitted <- errors.Join(errs...)
		go func() {
			d, err := c.Checkpoint()
			second <- verdict{d, err}
		}()
	})
	if err := errors.Join(c.Block(st(1, 1, 1, 2, 0)), c.Block(st(2, 2, 1, 1, 0))); err != nil {
		t.Fatal(err)
	}
	if d, err := c.Checkpoint(); err != nil || !d {
		t.Fatalf("checkpoint before the sever: %v %v, want deadlocked", d, err)
	}
	p.Hold()
	inFlight := len(p.Sent(0)) + frameLen(t, trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported})
	first := make(chan verdict, 1)
	go func() {
		d, err := c.Checkpoint()
		first <- verdict{d, err}
	}()
	waitUntil(t, func() bool { return len(p.Sent(0)) >= inFlight })
	p.Sever()

	if err := within(t, "pending emits", emitted); err != nil {
		t.Fatalf("emit during the outage: %v", err)
	}
	if v := within(t, "in-flight checkpoint", first); v.err != nil || !v.deadlocked {
		t.Fatalf("in-flight checkpoint: %+v, want deadlocked (the resynced state)", v)
	}
	if v := within(t, "pending checkpoint", second); v.err != nil || !v.deadlocked {
		t.Fatalf("pending checkpoint: %+v, want deadlocked (paired with a raw verdict's answer?)", v)
	}
	expectWire(t, p, 1, []string{
		"unblock task1", "unblock task2", "block task1", "block task2", // resync
		"verdict task0",                                                                   // the resent checkpoint: verdict 1
		"unblock task1", "verdict task0", "verdict task0", "verdict task0", "block task1", // pending: verdicts 2-4
		"verdict task0", // the second checkpoint: verdict 5
	})
	// And the pairing stays right afterwards, as in the original test.
	if err := c.Unblock(1); err != nil {
		t.Fatal(err)
	}
	if d, err := c.Checkpoint(); err != nil || d {
		t.Fatalf("checkpoint after unblock: %v %v, want false (stale pairing?)", d, err)
	}
}
