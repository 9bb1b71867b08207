package client_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/server"
	"armus/internal/trace"
)

// flakyProxy is a TCP relay whose live connections can be severed on
// demand — the transport-failure injector for the reconnect tests. It also
// records what every client connection wrote, and can hold a connection's
// outbound bytes back (swallow them) so round trips stay in flight.
type flakyProxy struct {
	ln     net.Listener
	target string
	mu     sync.Mutex
	live   []net.Conn
	sent   [][]byte // per accepted connection: the bytes its client wrote
	hold   bool
	closed bool
}

func newProxy(t *testing.T, target string) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &flakyProxy{ln: ln, target: target}
	go p.acceptLoop()
	t.Cleanup(p.Close)
	return p
}

func (p *flakyProxy) Addr() string { return p.ln.Addr().String() }

func (p *flakyProxy) acceptLoop() {
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", p.target)
		if err != nil {
			in.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			in.Close()
			out.Close()
			return
		}
		p.live = append(p.live, in, out)
		i := len(p.sent)
		p.sent = append(p.sent, nil)
		p.mu.Unlock()
		go func() { p.relayUp(i, out, in); out.Close(); in.Close() }()
		go func() { io.Copy(in, out); in.Close(); out.Close() }()
	}
}

// relayUp is the client-to-server direction of connection i: record, then
// forward unless held.
func (p *flakyProxy) relayUp(i int, out, in net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := in.Read(buf)
		p.mu.Lock()
		p.sent[i] = append(p.sent[i], buf[:n]...)
		hold := p.hold
		p.mu.Unlock()
		if n > 0 && !hold {
			if _, err := out.Write(buf[:n]); err != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// Hold makes the proxy swallow what clients write from now on: the bytes
// count as sent and never arrive.
func (p *flakyProxy) Hold() {
	p.mu.Lock()
	p.hold = true
	p.mu.Unlock()
}

// Sent returns a copy of what the client of the i-th accepted connection
// has written so far (nil before that connection exists).
func (p *flakyProxy) Sent(i int) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i >= len(p.sent) {
		return nil
	}
	return append([]byte(nil), p.sent[i]...)
}

// Sever cuts every live relayed connection and lifts a hold; new dials
// still succeed and relay.
func (p *flakyProxy) Sever() {
	p.mu.Lock()
	for _, c := range p.live {
		c.Close()
	}
	p.live = nil
	p.hold = false
	p.mu.Unlock()
}

func (p *flakyProxy) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.Sever()
}

func startServer(t *testing.T) *server.Server {
	t.Helper()
	s, err := server.New(server.Config{Addr: "127.0.0.1:0", Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func st(task int64, waitQ, waitN, regQ, regN int64) deps.Blocked {
	return deps.Blocked{
		Task:     deps.TaskID(task),
		WaitsFor: []deps.Resource{{Phaser: deps.PhaserID(waitQ), Phase: waitN}},
		Regs:     []deps.Reg{{Phaser: deps.PhaserID(regQ), Phase: regN}},
	}
}

// TestReconnectResumesSession: a severed transport reconnects behind the
// scenes and reattaches to the SAME session — state submitted before the
// failure still gates blocks submitted after it.
func TestReconnectResumesSession(t *testing.T) {
	s := startServer(t)
	p := newProxy(t, s.Addr())
	c, err := client.Dial(client.Config{
		Addr: p.Addr(), Session: "resume", Mode: core.ModeAvoid,
		RedialBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	// task1: waits phaser2@1, impedes phaser1@1. Admitted.
	if err := c.Block(st(1, 2, 1, 1, 0)); err != nil {
		t.Fatalf("block before failure: %v", err)
	}
	p.Sever()
	// task2 would close the cycle with task1 — the gate may only know
	// that if the reconnect resumed the SAME session state.
	var ge *client.GateError
	err = c.Block(st(2, 1, 1, 2, 0))
	if !errors.As(err, &ge) {
		t.Fatalf("block after reconnect: got %v, want *GateError (state lost?)", err)
	}
	if c.Reconnects() < 1 {
		t.Fatalf("reconnects = %d, want >= 1", c.Reconnects())
	}
	if !c.Resumed() {
		t.Fatal("session not resumed on reconnect")
	}
	// The connection is healthy after the round trip.
	if d, err := c.Checkpoint(); err != nil || d {
		t.Fatalf("post-reconnect checkpoint: %v %v", d, err)
	}
}

// TestCheckpointIsWriteBarrier: a checkpoint's verdict reflects every
// event emitted before it on the same client, including fire-and-forget
// detection blocks.
func TestCheckpointIsWriteBarrier(t *testing.T) {
	s := startServer(t)
	c, err := client.Dial(client.Config{Addr: s.Addr(), Session: "barrier", Mode: core.ModeDetect})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Block(st(1, 1, 1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Block(st(2, 2, 1, 1, 0)); err != nil {
		t.Fatal(err)
	}
	d, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if !d {
		t.Fatal("checkpoint missed a deadlock emitted right before it")
	}
	if err := c.Unblock(1); err != nil {
		t.Fatal(err)
	}
	if d, err := c.Checkpoint(); err != nil || d {
		t.Fatalf("checkpoint after unblock: %v %v", d, err)
	}
}

// TestCheckpointUnconfusedByRawVerdictEvents: the server answers EVERY
// ingested verdict event, so raw Emits of a recorded trace's verdict
// events draw unsolicited answers. Checkpoint must pair with ITS answer
// (by the per-connection sequence number), not the first one in flight —
// otherwise every later checkpoint on the connection is off by one.
func TestCheckpointUnconfusedByRawVerdictEvents(t *testing.T) {
	s := startServer(t)
	c, err := client.Dial(client.Config{Addr: s.Addr(), Session: "rawverdict", Mode: core.ModeDetect})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	// Deadlock the session, then emit raw verdict events: each draws an
	// unsolicited deadlocked=true answer.
	if err := c.Block(st(1, 1, 1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Block(st(2, 2, 1, 1, 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Emit(trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported}); err != nil {
			t.Fatal(err)
		}
	}
	if d, err := c.Checkpoint(); err != nil || !d {
		t.Fatalf("checkpoint amid raw verdicts: %v %v, want true", d, err)
	}
	// The discriminator: after the unblock, a checkpoint answered by a
	// stale (pre-unblock) response would still say deadlocked.
	if err := c.Unblock(1); err != nil {
		t.Fatal(err)
	}
	if d, err := c.Checkpoint(); err != nil || d {
		t.Fatalf("checkpoint after unblock: %v %v, want false (stale pairing?)", d, err)
	}
}

// TestConcurrentBlockSameTaskRefused: one outstanding gate round trip per
// task; a duplicate is a caller bug and is refused locally.
func TestConcurrentBlockSameTaskRefused(t *testing.T) {
	s := startServer(t)
	c, err := client.Dial(client.Config{Addr: s.Addr(), Session: "dup", Mode: core.ModeAvoid})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Block(st(1, 1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// The first Block completed, so a re-block (status refresh, arrived at
	// the new phase) is fine.
	if err := c.Block(st(1, 1, 2, 1, 2)); err != nil {
		t.Fatalf("status refresh refused: %v", err)
	}
	// A status awaiting an event the task itself impedes is a
	// self-deadlock; the gate must refuse it.
	var ge *client.GateError
	if err := c.Block(st(2, 2, 2, 2, 1)); !errors.As(err, &ge) {
		t.Fatalf("self-deadlock block: got %v, want *GateError", err)
	}
}

// TestCloseFailsPendingAndTerminates: Close is clean and terminal.
func TestCloseFailsPendingAndTerminates(t *testing.T) {
	s := startServer(t)
	c, err := client.Dial(client.Config{Addr: s.Addr(), Session: "close", Mode: core.ModeDetect})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := c.Register(1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := c.Unblock(1); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("emit after close: %v, want ErrClosed", err)
	}
	if _, err := c.Checkpoint(); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("checkpoint after close: %v, want ErrClosed", err)
	}
}

// TestReconnectGivesUpEventually: when the server is gone for good the
// client reports a terminal error instead of spinning forever.
func TestReconnectGivesUpEventually(t *testing.T) {
	s := startServer(t)
	p := newProxy(t, s.Addr())
	c, err := client.Dial(client.Config{
		Addr: p.Addr(), Session: "gone", Mode: core.ModeAvoid,
		RedialAttempts: 2, RedialBackoff: time.Millisecond, DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	p.Close() // server unreachable from now on
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Block(st(1, 1, 1, 1, 1))
		if err != nil && !errors.As(err, new(*client.GateError)) {
			break // terminal
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reported a terminal error")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestInlineGatesBesideEmitsAndReconnects: three goroutines share one
// avoidance client. The first makes gated Blocks, each of which finds the
// write side idle most of the time and writes its own slab; its answers
// alternate between admitted and refused, so an answer paired with the
// wrong waiter shows. The second streams fire-and-forget Emits through the
// pump, raw blocks and raw verdict events among them, whose answers have
// no waiter and shift every ordinal after them (a checkpoint now and then
// keeps them from outrunning the reader). The third severs the
// connection again and again. Every waiter must get the answer to its own
// event.
func TestInlineGatesBesideEmitsAndReconnects(t *testing.T) {
	s := startServer(t)
	p := newProxy(t, s.Addr())
	c, err := client.Dial(client.Config{Addr: p.Addr(), Session: "inline-mix", Mode: core.ModeAvoid,
		RedialBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Task 1 waits on phaser 1 and holds phaser 2 back; task 2 the reverse:
	// with task 1 blocked, task 2's block closes a cycle.
	one, two := st(1, 1, 1, 2, 0), st(2, 2, 1, 1, 0)
	const rounds, severs = 150, 6
	stop, severed := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		// The streaming emitter: task 10 blocks on a phaser nobody holds.
		// A checkpoint every 64 rounds keeps the answers it draws within
		// what a reader takes in, far below the server's slow-consumer
		// bound, which a peer that never waits trips.
		defer wg.Done()
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			err := errors.Join(
				c.Emit(trace.Event{Kind: trace.KindBlock, Task: 10, Status: st(10, 10, i, 11, 0)}),
				c.Emit(trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported}),
				c.Unblock(10),
			)
			if err == nil && i%64 == 0 {
				_, err = c.Checkpoint()
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() { // the transport failures
		defer wg.Done()
		defer close(severed)
		for i := 0; i < severs; i++ {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
			}
			p.Sever()
			for c.Reconnects() <= int64(i) && !closed(stop) {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	func() { // the gates, on the test goroutine
		defer close(stop)
		var ge *client.GateError
		for r := 0; r < rounds || !closed(severed); r++ {
			if err := c.Block(one); err != nil {
				errs <- fmt.Errorf("round %d: task1's block: %v, want admitted", r, err)
				return
			}
			if err := c.Block(two); !errors.As(err, &ge) || ge.Task != 2 {
				errs <- fmt.Errorf("round %d: task2's block beside task1: %v, want refused", r, err)
				return
			}
			if d, err := c.Checkpoint(); err != nil || d {
				errs <- fmt.Errorf("round %d: checkpoint: %v %v, want not deadlocked", r, d, err)
				return
			}
			if err := c.Unblock(1); err != nil {
				errs <- err
				return
			}
			if err := c.Block(two); err != nil {
				errs <- fmt.Errorf("round %d: task2's block alone: %v, want admitted", r, err)
				return
			}
			if err := c.Unblock(2); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Reconnects(); n != severs {
		t.Fatalf("%d reconnects, want %d", n, severs)
	}
}

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
