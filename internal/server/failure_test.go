package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"armus/internal/client"
	"armus/internal/clock"
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/server/proto"
	"armus/internal/trace"
)

// rawAttach opens a bare protocol connection (no SDK): dial, write the
// trace header handshake, read the hello.
func rawAttach(t *testing.T, s *Server, sess string, mode core.Mode) (net.Conn, *trace.Writer, *bufio.Reader, bool) {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	tw, err := trace.NewWriter(nc, proto.Handshake{Session: sess}.Label(), uint8(mode))
	if err == nil {
		err = tw.Flush()
	}
	if err != nil {
		t.Fatalf("handshake write: %v", err)
	}
	br := bufio.NewReader(nc)
	var r proto.Response
	if err := proto.ReadResponse(br, &r); err != nil {
		t.Fatalf("hello read: %v", err)
	}
	if r.Kind != proto.RespHello {
		t.Fatalf("expected hello, got %v (code %d: %s)", r.Kind, r.Code, r.Msg)
	}
	return nc, tw, br, r.Resumed
}

// TestClientCrashSessionGC: a client that vanishes mid-stream (no trace
// footer) leaves its session alive for the lease — a reconnect within the
// lease resumes it — and the clock-driven janitor collects it afterwards.
func TestClientCrashSessionGC(t *testing.T) {
	fc := clock.NewFake()
	s := testServer(t, Config{Lease: 3 * time.Second, SweepPeriod: time.Second, Clock: fc})

	nc, tw, _, resumed := rawAttach(t, s, "ghost", core.ModeDetect)
	if resumed {
		t.Fatal("fresh session reported as resumed")
	}
	if err := tw.WriteEvent(trace.Event{Kind: trace.KindBlock,
		Status: status(1, nil, nil)}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Metrics().Events.Load() >= 1 })

	// Crash: abrupt close, no footer. The connection goes, the session
	// stays.
	nc.Close()
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
	fc.Tick() // sweep 1: idle 1 of 3
	fc.Tick() // sweep 2 begins; GC cannot have happened yet
	if m := s.Metrics(); m.SessionsOpen.Load() != 1 || m.SessionsGCed.Load() != 0 {
		t.Fatalf("session collected before lease: %+v", m)
	}

	// A reconnect inside the lease resumes the session (and resets the
	// idle clock).
	nc2, _, _, resumed := rawAttach(t, s, "ghost", core.ModeDetect)
	if !resumed {
		t.Fatal("reconnect within lease did not resume the session")
	}
	nc2.Close()
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })

	// Now let the lease run out: the janitor collects the session.
	for i := 0; i < 10 && s.Metrics().SessionsGCed.Load() == 0; i++ {
		fc.Tick()
	}
	if m := s.Metrics(); m.SessionsGCed.Load() != 1 || m.SessionsOpen.Load() != 0 {
		t.Fatalf("session not collected after lease: %+v", m)
	}

	// A fresh attach under the same name is a brand-new session.
	nc3, _, _, resumed := rawAttach(t, s, "ghost", core.ModeDetect)
	if resumed {
		t.Fatal("attach after GC resumed a collected session")
	}
	nc3.Close()
}

// TestMalformedFrameRejected: garbage after a valid handshake gets the
// connection a malformed goodbye; garbage instead of a handshake is
// dropped; the server keeps serving everyone else either way.
func TestMalformedFrameRejected(t *testing.T) {
	s := testServer(t, Config{})

	// Garbage mid-stream: 0xff forever never terminates a uvarint, so the
	// frame-length read overflows after 10 bytes — a framing violation.
	nc, _, br, _ := rawAttach(t, s, "mal", core.ModeDetect)
	if _, err := nc.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	var r proto.Response
	if err := proto.ReadResponse(br, &r); err != nil {
		t.Fatalf("reading goodbye: %v", err)
	}
	if r.Kind != proto.RespGoodbye || r.Code != proto.ByeMalformed {
		t.Fatalf("got %v code=%d, want malformed goodbye", r.Kind, r.Code)
	}
	nc.Close()

	// Garbage instead of a handshake.
	nc2, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	nc2.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	nc2.Close()

	waitFor(t, func() bool { return s.Metrics().MalformedConns.Load() >= 2 })
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
	// The server is unharmed: a well-behaved client still gets service.
	c := dialTest(t, s, client.Config{Session: "fine", Mode: core.ModeDetect})
	if d, err := c.Checkpoint(); err != nil || d {
		t.Fatalf("server unhealthy after malformed peers: %v %v", d, err)
	}
}

// TestSlowConsumerDisconnect: a connection that stops draining its read
// side while responses accumulate in the coalesce buffer is disconnected
// the moment the response-count bound is exceeded — buffer memory stays
// bounded no matter how slow the peer.
func TestSlowConsumerDisconnect(t *testing.T) {
	srv := &Server{cfg: Config{Logf: func(string, ...any) {}}.withDefaults()}
	ss := newSession(srv, "slow", core.ModeDetect, nil)
	p1, p2 := net.Pipe()
	defer p2.Close()
	// No writeLoop: the coalesce buffer never drains, like a peer that
	// stopped reading while checkpoint verdicts pile up.
	c := &conn{srv: srv, nc: p1,
		wsig: make(chan struct{}, 1), done: make(chan struct{})}
	b := &batch{c: c, events: make([]trace.Event, maxBacklog+4), n: maxBacklog + 4}
	for i := range b.events {
		b.events[i] = trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported}
	}
	ss.apply(b)
	if got := srv.m.SlowDisconnects.Load(); got != 1 {
		t.Fatalf("slow disconnects = %d, want 1", got)
	}
	// The socket was closed: the peer reads EOF.
	p2.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := p2.Read(buf); err != nil {
			break
		}
	}
	// Later sends are dropped without a second disconnect.
	b2 := &batch{c: c, events: []trace.Event{{Kind: trace.KindVerdict, Verdict: trace.VerdictReported}}, n: 1}
	ss.apply(b2)
	if got := srv.m.SlowDisconnects.Load(); got != 1 {
		t.Fatalf("slow disconnect double-counted: %d", got)
	}
}

// TestSlowConsumerOverPipeCountedOnce: a peer on an in-memory net.Pipe that
// sends checkpoints and never reads is disconnected by the slow-consumer
// policy, which closes the pipe under the read loop. That is one slow
// disconnect and no malformed stream: the read loop's io.ErrClosedPipe is
// an abrupt close like any socket's. Answers that ride the writer's first
// swap do not count toward the backlog, hence twice the bound.
func TestSlowConsumerOverPipeCountedOnce(t *testing.T) {
	s := testServer(t, Config{})
	var wire bytes.Buffer
	tw, err := trace.NewWriter(&wire, proto.Handshake{Session: "pipe-slow"}.Label(), uint8(core.ModeDetect))
	for i := 0; err == nil && i < 2*maxBacklog; i++ {
		err = tw.WriteEvent(trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported})
	}
	if err == nil {
		err = tw.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	peer, server := net.Pipe()
	defer peer.Close()
	s.wg.Add(1)
	go s.handleConn(server)
	// Nobody reads peer: the hello blocks the writer and the answers pile
	// up. The write ends early if the pipe closes under it.
	peer.Write(wire.Bytes())
	waitFor(t, func() bool { return s.Metrics().SlowDisconnects.Load() > 0 })
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
	if m := s.Metrics(); m.SlowDisconnects.Load() != 1 || m.MalformedConns.Load() != 0 {
		t.Fatalf("%d slow disconnects, %d malformed connections; want 1 and 0",
			m.SlowDisconnects.Load(), m.MalformedConns.Load())
	}
}

// TestManyClientsSmoke hammers one server with concurrent clients across
// shared avoidance and detection sessions — the race-detector workout for
// the whole accept/apply/respond path.
func TestManyClientsSmoke(t *testing.T) {
	s := testServer(t, Config{})
	const clients = 16
	const rounds = 10
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mode := core.ModeAvoid
			sess := "smoke-avoid"
			if i%2 == 0 {
				mode = core.ModeDetect
				sess = "smoke-detect"
			}
			c, err := client.Dial(client.Config{
				Addr: s.Addr(), Session: sess, Mode: mode, Subscribe: true,
				OnReport: func(client.Report) {},
			})
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			base := int64(i * 100)
			for r := 0; r < rounds; r++ {
				for k := int64(0); k < 8; k++ {
					task := base + k
					q := task%4 + 1
					if err := c.Register(deps.TaskID(task), deps.PhaserID(q), 1, 0); err != nil {
						errCh <- err
						return
					}
					// Arrived at its phaser: deadlock-free by construction.
					if err := c.Block(status(task,
						[]deps.Resource{res(q, 1)}, []deps.Reg{reg(q, 1)})); err != nil {
						errCh <- err
						return
					}
				}
				if d, err := c.Checkpoint(); err != nil {
					errCh <- err
					return
				} else if d {
					errCh <- fmt.Errorf("client %d: spurious deadlock", i)
					return
				}
				for k := int64(0); k < 8; k++ {
					if err := c.Unblock(deps.TaskID(base + k)); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.MalformedConns.Load() != 0 || m.SlowDisconnects.Load() != 0 {
		t.Fatalf("smoke run tripped failure paths: %+v", m)
	}
	if m.Events.Load() < clients*rounds*8 {
		t.Fatalf("events ingested = %d, want >= %d", m.Events.Load(), clients*rounds*8)
	}
}
