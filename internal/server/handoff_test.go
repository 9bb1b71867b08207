package server

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/server/proto"
	"armus/internal/trace"
)

// A read loop applies what it decoded under its session's lock, and
// teardown follows from that: a busy session stops its connections
// reading and loses nothing, every answer precedes a goodbye, and a
// connection that never attached tears down at once.

// readResp reads one response or fails the test.
func readResp(t *testing.T, br *bufio.Reader) proto.Response {
	t.Helper()
	var r proto.Response
	if err := proto.ReadResponse(br, &r); err != nil {
		t.Fatalf("read response: %v", err)
	}
	return r
}

// TestBusySessionStopsReading: while the session lock is held, a
// connection that has decoded a batch waits to apply it and reads no more
// of its socket, and once the lock goes every answer arrives, in order.
// On a net.Pipe a write completes only when the server reads it, so a
// second write that stays pending shows the read loop stopped; 16 TCP
// connections with three checkpoints each show one waiting batch per
// connection and nothing applied.
func TestBusySessionStopsReading(t *testing.T) {
	const (
		name   = "busy"
		conns  = 16
		checks = 3
	)
	s := testServer(t, Config{})
	ncs := make([]net.Conn, conns)
	tws := make([]*trace.Writer, conns)
	brs := make([]*bufio.Reader, conns)
	for i := range ncs {
		ncs[i], tws[i], brs[i], _ = rawAttach(t, s, name, core.ModeDetect)
		defer ncs[i].Close()
	}
	peer, server := net.Pipe()
	defer peer.Close()
	s.wg.Add(1)
	go s.handleConn(server)
	ptw, err := trace.NewWriter(peer, proto.Handshake{Session: name}.Label(), uint8(core.ModeDetect))
	if err == nil {
		err = ptw.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	pbr := bufio.NewReader(peer)
	if r := readResp(t, pbr); r.Kind != proto.RespHello {
		t.Fatalf("pipe: kind=%v, want hello", r.Kind)
	}
	checkpoint := func(tw *trace.Writer) error {
		if err := tw.WriteEvent(trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported}); err != nil {
			return err
		}
		return tw.Flush()
	}

	sh := s.shardFor(name)
	sh.mu.Lock()
	ss := sh.m[name]
	sh.mu.Unlock()
	ss.mu.Lock()
	var unlock sync.Once
	release := func() { unlock.Do(ss.mu.Unlock) }
	defer release()

	if err := checkpoint(ptw); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Metrics().ExecQueueDepth.Load() == 1 })
	second := make(chan error, 1)
	go func() { second <- checkpoint(ptw) }()
	for i, tw := range tws {
		for k := 0; k < checks; k++ {
			if err := tw.WriteEvent(trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported}); err != nil {
				t.Fatalf("conn %d: %v", i, err)
			}
		}
		if err := tw.Flush(); err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
	}
	waitFor(t, func() bool { return s.Metrics().ExecQueueDepth.Load() == conns+1 })
	select {
	case err := <-second:
		t.Fatalf("a write completed while its read loop waited on the session (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if got := s.Metrics().Batches.Load(); got != 0 {
		t.Fatalf("%d batches applied while the session was held", got)
	}
	release()

	for k := 1; k <= 2; k++ {
		if r := readResp(t, pbr); r.Kind != proto.RespVerdict || r.Seq != uint64(k) {
			t.Fatalf("pipe answer %d: kind=%v seq=%d, want verdict seq %d", k, r.Kind, r.Seq, k)
		}
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	for i, br := range brs {
		for k := 1; k <= checks; k++ {
			if r := readResp(t, br); r.Kind != proto.RespVerdict || r.Seq != uint64(k) {
				t.Fatalf("conn %d answer %d: kind=%v seq=%d, want verdict seq %d", i, k, r.Kind, r.Seq, k)
			}
		}
	}
	waitFor(t, func() bool { return s.Metrics().Events.Load() == 2+conns*checks })
	waitFor(t, func() bool { return s.Metrics().ExecQueueDepth.Load() == 0 })
}

// TestMalformedStreamAnswersFirst: checkpoints followed by garbage in one
// write are all answered before the malformed goodbye goes.
func TestMalformedStreamAnswersFirst(t *testing.T) {
	const checks = 300
	s := testServer(t, Config{})
	var wire bytes.Buffer
	tw, err := trace.NewWriter(&wire, proto.Handshake{Session: "mal-tail"}.Label(), uint8(core.ModeDetect))
	for i := 0; err == nil && i < checks; i++ {
		err = tw.WriteEvent(trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported})
	}
	if err == nil {
		err = tw.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	// 0xff never ends a uvarint: the frame-length read overflows.
	wire.Write(bytes.Repeat([]byte{0xff}, 12))

	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	if r := readResp(t, br); r.Kind != proto.RespHello {
		t.Fatalf("first response %v, want hello", r.Kind)
	}
	for k := 1; k <= checks; k++ {
		r := readResp(t, br)
		if r.Kind != proto.RespVerdict || r.Seq != uint64(k) {
			t.Fatalf("response %d: kind=%v seq=%d (code %d), want verdict seq %d", k, r.Kind, r.Seq, r.Code, k)
		}
	}
	if r := readResp(t, br); r.Kind != proto.RespGoodbye || r.Code != proto.ByeMalformed {
		t.Fatalf("after the answers: kind=%v code=%d, want malformed goodbye", r.Kind, r.Code)
	}
}

// TestRefusedHandshakeTearsDownPromptly: a connection refused at the
// handshake never attached, so it has nothing to apply. It tears down at
// once.
func TestRefusedHandshakeTearsDownPromptly(t *testing.T) {
	s := testServer(t, Config{})
	keep, _, _, _ := rawAttach(t, s, "taken", core.ModeDetect)
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	tw, err := trace.NewWriter(nc, proto.Handshake{Session: "taken"}.Label(), uint8(core.ModeAvoid))
	if err == nil {
		err = tw.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	if r := readResp(t, bufio.NewReader(nc)); r.Kind != proto.RespGoodbye || r.Code != proto.ByeSession {
		t.Fatalf("mode clash: kind=%v code=%d, want session goodbye", r.Kind, r.Code)
	}
	start := time.Now()
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 1 })
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("refused connection took %v to tear down", took)
	}
	keep.Close()
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
}

// TestShutdownDuringHandshake: Shutdown's goodbye reaches a connection
// that has not sent its trace header yet, so the writer flushes while the
// handshake goes on and attach sets the connection's session. Under -race
// this is the check that the two are ordered.
func TestShutdownDuringHandshake(t *testing.T) {
	s := testServer(t, Config{SweepPeriod: 10 * time.Millisecond, DrainGrace: time.Second})
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	waitFor(t, func() bool { return s.activeConns() == 1 })
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Shutdown()
	}()
	br := bufio.NewReader(nc)
	if r := readResp(t, br); r.Kind != proto.RespGoodbye || r.Code != proto.ByeDrain {
		t.Fatalf("kind=%v code=%d, want drain goodbye", r.Kind, r.Code)
	}
	tw, err := trace.NewWriter(nc, proto.Handshake{Session: "late"}.Label(), uint8(core.ModeDetect))
	if err == nil {
		err = tw.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	if r := readResp(t, br); r.Kind != proto.RespHello {
		t.Fatalf("kind=%v, want hello", r.Kind)
	}
	nc.Close()
	<-done
}

// TestGateBurstNotSlowConsumer: one avoidance client whose 300 tasks gate
// 20 times each, all at once, reads every answer it is sent. However many
// answers its read loop encodes before the writer runs, that client is
// not a slow consumer: it is never disconnected, so it never reconnects.
func TestGateBurstNotSlowConsumer(t *testing.T) {
	const tasks, gates = 300, 20
	s := testServer(t, Config{})
	c := dialTest(t, s, client.Config{Session: "burst", Mode: core.ModeAvoid})
	var wg sync.WaitGroup
	errs := make(chan error, tasks)
	for i := int64(1); i <= tasks; i++ {
		wg.Add(1)
		go func(task int64) {
			defer wg.Done()
			q := task%8 + 1
			for g := 0; g < gates; g++ {
				// Arrived at its phaser: the gate admits every block.
				if err := c.Block(status(task, []deps.Resource{res(q, 1)}, []deps.Reg{reg(q, 1)})); err != nil {
					errs <- err
					return
				}
				if err := c.Unblock(deps.TaskID(task)); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := s.Metrics().SlowDisconnects.Load(); n != 0 {
		t.Fatalf("a client reading every answer was disconnected %d times as a slow consumer", n)
	}
	if n := c.Reconnects(); n != 0 {
		t.Fatalf("client reconnected %d times", n)
	}
}
