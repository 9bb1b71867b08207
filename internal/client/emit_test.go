package client

import (
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/server"
	"armus/internal/server/proto"
	"armus/internal/trace"
)

// fakePeer is a TCP peer that completes the handshake, runs after on the
// connection if it is given, and then never reads again (the kernel's socket
// buffers fill and the SDK's writer sticks in Write). It returns the address
// to dial and a stop function that closes the peer and waits for its
// goroutine.
func fakePeer(t testing.TB, mode core.Mode, after func(net.Conn)) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	release, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, err := trace.NewReader(nc); err != nil {
			return
		}
		hello, _ := proto.AppendResponse(nil, &proto.Response{Kind: proto.RespHello, Mode: uint8(mode)})
		if _, err := nc.Write(hello); err != nil {
			return
		}
		if after != nil {
			after(nc)
		}
		<-release
	}()
	return ln.Addr().String(), func() {
		close(release)
		ln.Close()
		<-done
	}
}

// discardingClient dials a detection session on a fakePeer that reads and
// drops everything: the SDK alone, whatever a server would do with the bytes
// excluded.
func discardingClient(t testing.TB) *Client {
	t.Helper()
	addr, stop := fakePeer(t, core.ModeDetect, func(nc net.Conn) { io.Copy(io.Discard, nc) })
	c, err := Dial(Config{Addr: addr, Session: "discard", Mode: core.ModeDetect})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		stop()
	})
	return c
}

// meshLap is one lap of a Mesh-shaped stream (benchmark/gen.Mesh(8, 8)):
// 8 tasks, 64 two-member phasers, every task registered with 16 of them, so
// every blocked status carries 16 registrations; per phaser and phase the
// first arriver blocks and the second releases it — two arrives, a block
// and an unblock, half of the events mutations.
func meshLap() []trace.Event {
	const tasks, own = 8, 8
	regs := make([][]deps.Reg, tasks)
	type phaser struct{ a, b int }
	var phasers []phaser
	for k := 0; k < own; k++ {
		for a := 0; a < tasks; a++ {
			b := (a + 1 + k%(tasks-1)) % tasks
			q := deps.PhaserID(len(phasers) + 1)
			phasers = append(phasers, phaser{a, b})
			regs[a] = append(regs[a], deps.Reg{Phaser: q})
			regs[b] = append(regs[b], deps.Reg{Phaser: q})
		}
	}
	var lap []trace.Event
	for i, p := range phasers {
		q := deps.PhaserID(i + 1)
		a, b := deps.TaskID(p.a+1), deps.TaskID(p.b+1)
		lap = append(lap,
			trace.Event{Kind: trace.KindArrive, Task: a, Phaser: q, Phase: 1},
			trace.Event{Kind: trace.KindBlock, Task: a, Status: deps.Blocked{
				Task: a, WaitsFor: []deps.Resource{{Phaser: q, Phase: 1}}, Regs: regs[p.a]}},
			trace.Event{Kind: trace.KindArrive, Task: b, Phaser: q, Phase: 1},
			trace.Event{Kind: trace.KindUnblock, Task: a})
	}
	return lap
}

// TestEmitZeroAlloc: once the slabs and the ledger are warm the outbound
// path allocates nothing, in the caller or in the writer — fire-and-forget
// events, and a detection-mode re-block of a 16-registration status, whose
// only copy goes into the ledger entry's existing buffers.
func TestEmitZeroAlloc(t *testing.T) {
	c := discardingClient(t)
	lap := meshLap()
	stream := func() {
		for i := range lap {
			e := &lap[i]
			var err error
			switch e.Kind {
			case trace.KindBlock:
				err = c.Block(e.Status)
			case trace.KindUnblock:
				err = c.Unblock(e.Task)
			default:
				err = c.Arrive(e.Task, e.Phaser, e.Phase)
				if err == nil {
					err = c.Register(e.Task, e.Phaser, e.Phase, 0)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 50; i++ { // warm the slabs, the ledger and the writer
		stream()
	}
	if n := testing.AllocsPerRun(50, stream); n != 0 {
		t.Fatalf("a lap of %d warm events allocates %.0f times, want 0", len(lap), n)
	}
}

// BenchmarkEmitStream is the SDK's cost per event, peer excluded: a
// Mesh-shaped stream through Block/Unblock/Emit to a discarding peer.
func BenchmarkEmitStream(b *testing.B) {
	c := discardingClient(b)
	lap := meshLap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &lap[i%len(lap)]
		var err error
		switch e.Kind {
		case trace.KindBlock:
			err = c.Block(e.Status)
		case trace.KindUnblock:
			err = c.Unblock(e.Task)
		default:
			err = c.Emit(*e)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	c.Close() // the drain is part of the cost
}

// TestBackpressureAndCloseAgainstStalledPeer: against a peer that never
// reads, Emit blocks once Config.Buffer events are pending — bounded memory
// is the contract; Close releases the blocked caller with ErrClosed at once,
// gives the drain up after DialTimeout, and leaves no goroutine behind.
func TestBackpressureAndCloseAgainstStalledPeer(t *testing.T) {
	before := runtime.NumGoroutine()
	addr, stopPeer := fakePeer(t, core.ModeDetect, nil)
	const buffer = 4
	c, err := Dial(Config{
		Addr: addr, Session: "stalled", Mode: core.ModeDetect, Buffer: buffer,
		DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}

	// Frames of several KB, so the socket buffers fill after a few
	// thousand events, not a few million.
	big := deps.Blocked{Task: 1, WaitsFor: []deps.Resource{{Phaser: 1, Phase: 1}}}
	for q := 1; q <= 2000; q++ {
		big.Regs = append(big.Regs, deps.Reg{Phaser: deps.PhaserID(q), Phase: int64(q)})
	}
	accepted := make(chan struct{}, 1)
	emitErr := make(chan error, 1)
	go func() {
		for {
			if err := c.Block(big); err != nil {
				emitErr <- err
				return
			}
			select {
			case accepted <- struct{}{}:
			default:
			}
		}
	}()
	// Progress stops when the writer is stuck in Write and the pending slab
	// has filled to the bound behind it.
	for stalled := false; !stalled; {
		select {
		case <-accepted:
		case err := <-emitErr:
			t.Fatalf("emit: %v", err)
		case <-time.After(500 * time.Millisecond):
			stalled = true
		}
	}
	c.mu.Lock()
	pending := c.pendN
	c.mu.Unlock()
	if pending != buffer {
		t.Fatalf("Emit blocked with %d events pending, want Buffer = %d", pending, buffer)
	}

	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case err := <-emitErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Emit released with %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release the blocked Emit")
	}
	select {
	case err := <-closed:
		// The truncated drain is not silent.
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Close after a drain cut short: %v, want a deadline error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hangs on a peer that never reads")
	}
	if err := c.Unblock(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("emit after close: %v, want ErrClosed", err)
	}
	stopPeer()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Dial, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPendingWaitersNotAnsweredByEarlierOrdinals: a waiter riding in the
// pending slab holds a slab-relative ordinal, and a response to an EARLIER
// waiter-less event on the connection (a raw Emit of a verdict or a block,
// as replay produces) can carry that same number. Such a response must not
// be delivered to the waiter: its event has not reached the wire, and a
// Checkpoint answered that way would break the write barrier. The writer is
// held in Write by a peer that has stopped reading, so the waiters stay
// pending while the peer answers ordinal 1 of each kind.
func TestPendingWaitersNotAnsweredByEarlierOrdinals(t *testing.T) {
	cue := make(chan struct{})
	addr, stopPeer := fakePeer(t, core.ModeAvoid, func(nc net.Conn) {
		nc.(*net.TCPConn).SetReadBuffer(4096) // stall the writer sooner
		<-cue
		var out []byte
		for _, r := range []proto.Response{
			{Kind: proto.RespVerdict, Seq: 1, Deadlocked: true},
			{Kind: proto.RespGate, Task: 9, Allowed: true},
			{Kind: proto.RespReport, Tasks: []deps.TaskID{1}},
		} {
			out, _ = proto.AppendResponse(out, &r)
		}
		nc.Write(out)
	})
	defer stopPeer()
	reported := make(chan struct{}, 1)
	c, err := Dial(Config{
		Addr: addr, Session: "ordinals", Mode: core.ModeAvoid, Buffer: 1 << 30,
		DialTimeout: 200 * time.Millisecond,
		Subscribe:   true, OnReport: func(Report) { reported <- struct{}{} },
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	pending := func() (n, waiters int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.pendN, len(c.pendWaiters)
	}

	// Ordinal 1 of each kind goes to a raw, waiter-less event.
	if err := c.Emit(checkpointEvent); err != nil {
		t.Fatal(err)
	}
	if err := c.Emit(trace.Event{Kind: trace.KindBlock, Task: 9, Status: deps.Blocked{Task: 9}}); err != nil {
		t.Fatal(err)
	}
	for n, _ := pending(); n > 0; n, _ = pending() {
		time.Sleep(time.Millisecond)
	}
	// Fill the socket with events of neither kind until the writer stops
	// taking the slab.
	for stuck := false; !stuck; {
		for i := 0; i < 200000; i++ {
			if err := c.Unblock(1); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(100 * time.Millisecond)
		n, _ := pending()
		stuck = n > 0
	}

	check, gate := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := c.Checkpoint()
		check <- err
	}()
	go func() { gate <- c.Block(deps.Blocked{Task: 9}) }()
	for _, w := pending(); w < 2; _, w = pending() {
		time.Sleep(time.Millisecond)
	}
	close(cue)
	select {
	case <-reported: // the reader is past both answers
	case <-time.After(5 * time.Second):
		t.Fatal("the peer's responses did not arrive")
	}
	c.mu.Lock()
	for _, w := range c.pendWaiters {
		if w.sentGen != 0 || w.seq != 1 {
			t.Errorf("waiter left the pending slab (sentGen %d, seq %d): the writer was not stalled", w.sentGen, w.seq)
		}
	}
	if c.blocks[9] == nil || c.checkHead == len(c.checks) {
		t.Error("a pending waiter was retired by the answer to an earlier event")
	}
	c.mu.Unlock()
	c.Close()
	// Never written, never answered: both fail with the close.
	for what, ch := range map[string]chan error{"Checkpoint": check, "Block": gate} {
		select {
		case err := <-ch:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("%s on an event that never reached the wire: %v, want ErrClosed", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s still waiting after Close", what)
		}
	}
}

// TestGatedRoundTripZeroAlloc: over a loopback socket to a real server, a
// warm gated Block and a Checkpoint go out from the calling goroutine and
// come back through the server's read loop, which writes its answer
// itself; the whole round trip, both ends and the unblock between,
// allocates nothing. (TestExecutorPathZeroAlloc runs the server over
// net.Pipe, which has no descriptor to write to inline.)
func TestGatedRoundTripZeroAlloc(t *testing.T) {
	s, err := server.New(server.Config{Addr: "127.0.0.1:0", Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(Config{Addr: s.Addr(), Session: "inline-alloc", Mode: core.ModeAvoid})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	status := deps.Blocked{Task: 1,
		WaitsFor: []deps.Resource{{Phaser: 1, Phase: 1}}, Regs: []deps.Reg{{Phaser: 2}}}
	// Task 9 stays blocked alike, so the session keeps both phasers indexed
	// while task 1 comes and goes: a phaser nothing waits on or is
	// registered with is forgotten, and indexing it again allocates.
	parked := status
	parked.Task = 9
	if err := c.Block(parked); err != nil {
		t.Fatal(err)
	}
	round := func() {
		if err := c.Block(status); err != nil {
			t.Fatal(err)
		}
		if err := c.Unblock(1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("a warm gated round trip allocates %.2f times, want 0", n)
	}
}
