package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"armus/internal/client"
	"armus/internal/clock"
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/obs"
	"armus/internal/segment"
	"armus/internal/server/proto"
	"armus/internal/trace"
	"armus/internal/trace/replay"
)

// TestExecutorPathZeroAlloc guards the acceptance criterion for the
// executor rework: the FULL ingest path — wire decode (conn.decode, the
// read loop's own, with the archive tee off and on), the decode stamp and
// the channel send, executor receive + gate/mutate/checkpoint, coalesced
// response encode — allocates nothing per batch once warm, in both session
// modes. The executor goroutine is stopped and its receive loop
// (drainQueue) run inline, so that the measured calls do all the work. With the archive on, its
// store's goroutine runs beside: the stream is sized to stay inside one
// archive block, so that it only appends to a warm buffer.
func TestExecutorPathZeroAlloc(t *testing.T) {
	const (
		tasks          = 64
		eventsPerBatch = tasks + 1 + tasks // blocks, checkpoint, unblocks
		batches        = 80                // > warmups + AllocsPerRun's 51 calls, and < one archive block
	)
	// One steady round per batch: 64 tasks block (each arrived at its
	// phaser, so the gate admits without refusing), one checkpoint, then
	// everyone unblocks. Deadlock-free, so only the hot path runs.
	var round []trace.Event
	for i := 1; i <= tasks; i++ {
		q := int64(i%8 + 1)
		round = append(round, trace.Event{Kind: trace.KindBlock, Task: deps.TaskID(i),
			Status: status(int64(i), []deps.Resource{res(q, 1)}, []deps.Reg{reg(q, 1)})})
	}
	round = append(round, trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported})
	for i := 1; i <= tasks; i++ {
		round = append(round, trace.Event{Kind: trace.KindUnblock, Task: deps.TaskID(i)})
	}

	for _, tc := range []struct {
		mode              core.Mode
		archive, reblocks bool
	}{
		{core.ModeAvoid, false, false}, {core.ModeDetect, false, false},
		{core.ModeAvoid, true, false}, {core.ModeDetect, true, false},
		{core.ModeDetect, false, true}, {core.ModeDetect, true, true},
	} {
		mode := tc.mode
		name := mode.String()
		if tc.archive {
			name += "-archived"
		}
		if tc.reblocks {
			name += "-reblocks"
		}
		t.Run(name, func(t *testing.T) {
			// Pre-encode the wire stream the decode half will consume: full
			// frames, or re-blocks wherever the SDK would send them.
			var wire bytes.Buffer
			tw, err := trace.NewWriter(&wire, "alloc", uint8(mode))
			if err != nil {
				t.Fatal(err)
			}
			var stream []trace.Event
			for b := 0; b < batches; b++ {
				stream = append(stream, round...)
			}
			if tc.reblocks {
				err = tw.WriteFrames(reblockFrames(t, stream))
			} else {
				for i := range stream {
					if err = tw.WriteEvent(stream[i]); err != nil {
						break
					}
				}
			}
			if err == nil {
				err = tw.Flush()
			}
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.NewReader(bytes.NewReader(wire.Bytes()))
			if err != nil {
				t.Fatal(err)
			}

			srv := &Server{cfg: Config{Logf: func(string, ...any) {}}.withDefaults()}
			if tc.archive {
				if srv.seg, err = segment.NewStore(segment.Config{Dir: t.TempDir()}); err != nil {
					t.Fatal(err)
				}
			}
			ss := newSession(srv, "alloc", mode, nil, 0)
			ss.shutdownExecutor() // run its loop inline instead
			c := &conn{srv: srv, wsig: make(chan struct{}, 1), done: make(chan struct{})}
			c.free = make(chan *batch, 1)
			// Every slot's slices start warm: decode ends a batch where the
			// reader's window happens to end on a frame boundary, and from
			// then on the rounds no longer fall on the same slots.
			events := make([]trace.Event, eventsPerBatch)
			for i := range events {
				events[i].Status = status(0, make([]deps.Resource, 0, 1), make([]deps.Reg, 0, 1))
			}
			c.free <- &batch{c: c, events: events}

			decoded := 0
			run := func() {
				// Read loop half: decode one batch (and tee it), stamp it and
				// enqueue it.
				b := <-c.free
				if err := c.decode(tr, ss, b); err != nil || b.n == 0 {
					t.Fatalf("decode: %d events, %v", b.n, err)
				}
				decoded += b.n
				b.decNs = obs.Nanotime()
				ss.enqueue(b)
				// Executor half: receive and process until drained.
				ss.drainQueue()
				// Writer half: reclaim the coalesce buffer like a flush.
				c.wmu.Lock()
				c.wbuf = c.wbuf[:0]
				c.wcount = 0
				c.wmu.Unlock()
				select {
				case <-c.wsig:
				default:
				}
				if tc.archive {
					// Archive half: let the store take what was handed over
					// and put the batch back in its pool.
					runtime.Gosched()
				}
			}
			run()
			run() // warm the pools, maps, scratch and both buffers
			for i := 0; tc.archive && i <= teeFlushBytes/(wire.Len()/batches); i++ {
				run() // and the archive batch, which is handed over every teeFlushBytes
			}
			// (The archive batch comes back through a sync.Pool, which the
			// race detector makes forgetful.)
			if n := testing.AllocsPerRun(50, run); n != 0 && !(tc.archive && raceEnabled) {
				t.Fatalf("executor ingest path allocates %.1f allocs per batch, want 0", n)
			}
			if tc.archive {
				c.teeFlush()
				srv.seg.Close()
				if got := srv.seg.Metrics().Events.Load(); got != int64(decoded) || srv.seg.Metrics().BatchesDropped.Load() != 0 {
					t.Fatalf("archive took %d of %d decoded events, %d batches dropped",
						got, decoded, srv.seg.Metrics().BatchesDropped.Load())
				}
			}
		})
	}
}

// TestExecutorDrainMidQueue (chaos): stop arrives while batches are still
// queued — the executor's drain must process every one of them, in order,
// before exiting; none may be dropped on the floor.
func TestExecutorDrainMidQueue(t *testing.T) {
	srv := &Server{cfg: Config{Logf: func(string, ...any) {}}.withDefaults()}
	ss := newSession(srv, "drain", core.ModeDetect, nil, 0)
	c := &conn{srv: srv, wsig: make(chan struct{}, 1), done: make(chan struct{})}
	const batches = 16
	for i := 0; i < batches; i++ {
		ss.enqueue(&batch{c: c, n: 1,
			events: []trace.Event{{Kind: trace.KindVerdict, Verdict: trace.VerdictReported}}})
	}
	// Depending on scheduling the executor is anywhere in the queue when
	// stop lands; either way every batch must be applied at exit.
	ss.shutdownExecutor()
	if got := srv.m.Batches.Load(); got != batches {
		t.Fatalf("executor exited with %d of %d batches applied", got, batches)
	}
	// Every checkpoint got its response, in submission order.
	br := bufio.NewReader(bytes.NewReader(c.wbuf))
	var r proto.Response
	for i := 1; i <= batches; i++ {
		if err := proto.ReadResponse(br, &r); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if r.Kind != proto.RespVerdict || r.Seq != uint64(i) {
			t.Fatalf("response %d: kind=%v seq=%d, want verdict seq %d", i, r.Kind, r.Seq, i)
		}
	}
}

// TestStalledConsumerCoalesceBacklog (chaos): the peer stops reading while
// the writer is stuck mid-flush, so responses pile into the fresh
// coalesce buffer. Crossing the response-count bound must disconnect the
// peer exactly once, drop later sends, and never deliver the backlog.
func TestStalledConsumerCoalesceBacklog(t *testing.T) {
	srv := &Server{cfg: Config{Logf: func(string, ...any) {}}.withDefaults()}
	p1, p2 := net.Pipe()
	defer p2.Close()
	c := &conn{srv: srv, nc: p1,
		wsig: make(chan struct{}, 1), done: make(chan struct{}), writerDone: make(chan struct{})}
	go c.writeLoop()
	// First response: the writer swaps it out and blocks inside Write
	// (net.Pipe is unbuffered and the peer never reads).
	if !c.send(proto.Response{Kind: proto.RespVerdict, Seq: 1}) {
		t.Fatal("first send dropped")
	}
	waitFor(t, func() bool { return c.queueDepth() == 0 })
	// Now the pile-up: response maxBacklog+1 crosses the bound with a
	// non-empty coalesce buffer behind it.
	dropped := 0
	for i := 0; i < maxBacklog+2; i++ {
		if !c.send(proto.Response{Kind: proto.RespVerdict, Seq: uint64(i + 2)}) {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no send was refused despite the backlog")
	}
	if got := srv.m.SlowDisconnects.Load(); got != 1 {
		t.Fatalf("slow disconnects = %d, want exactly 1", got)
	}
	if c.send(proto.Response{Kind: proto.RespVerdict, Seq: 99}) {
		t.Fatal("send after slow disconnect not dropped")
	}
	if got := srv.m.SlowDisconnects.Load(); got != 1 {
		t.Fatalf("slow disconnect double-counted: %d", got)
	}
	// The backlog was never delivered: the peer sees the close, no data.
	p2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := p2.Read(make([]byte, 256)); err == nil {
		t.Fatalf("stalled peer received %d bytes; expected only the disconnect", n)
	}
	// The writer exits instead of wedging on the dead socket.
	close(c.done)
	select {
	case <-c.writerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("writer wedged after slow disconnect")
	}
}

// TestCrashGCResumeExecutorLifecycle (chaos, on clock.Fake): a client
// crash leaves the session's executor alive and parked; a reconnect
// within the lease is served by the SAME executor; after the lease the
// janitor stops it, and a fresh attach spawns a new one.
func TestCrashGCResumeExecutorLifecycle(t *testing.T) {
	fc := clock.NewFake()
	s := testServer(t, Config{Lease: 2 * time.Second, SweepPeriod: time.Second, Clock: fc})

	gateRoundTrip := func(nc net.Conn, tw *trace.Writer, br *bufio.Reader, task int64) {
		t.Helper()
		if err := tw.WriteEvent(trace.Event{Kind: trace.KindBlock,
			Status: status(task, []deps.Resource{res(task, 1)}, []deps.Reg{reg(task, 1)})}); err != nil {
			t.Fatal(err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		var r proto.Response
		if err := proto.ReadResponse(br, &r); err != nil {
			t.Fatalf("gate response: %v", err)
		}
		if r.Kind != proto.RespGate || !r.Allowed {
			t.Fatalf("gate response = %+v, want allowed", r)
		}
	}

	nc, tw, br, resumed := rawAttach(t, s, "lifecycle", core.ModeAvoid)
	if resumed {
		t.Fatal("fresh session reported as resumed")
	}
	if got := s.Metrics().ExecSpawned.Load(); got != 1 {
		t.Fatalf("executors spawned = %d, want 1", got)
	}
	gateRoundTrip(nc, tw, br, 1)
	// Idle executor parks (it may park and re-wake per batch; at least
	// one park episode must be visible).
	waitFor(t, func() bool { return s.Metrics().ExecParks.Load() >= 1 })

	// Crash. The connection goes; session and executor stay.
	nc.Close()
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
	fc.Tick() // idle 1 of 2

	// Reconnect inside the lease: same session, same executor, and it
	// still serves gate decisions.
	nc2, tw2, br2, resumed := rawAttach(t, s, "lifecycle", core.ModeAvoid)
	if !resumed {
		t.Fatal("reconnect within lease did not resume")
	}
	if got := s.Metrics().ExecSpawned.Load(); got != 1 {
		t.Fatalf("resume spawned a second executor (%d)", got)
	}
	gateRoundTrip(nc2, tw2, br2, 2)

	// Crash again and let the lease run out: the janitor stops the
	// executor and collects the session.
	nc2.Close()
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
	for i := 0; i < 10 && s.Metrics().SessionsGCed.Load() == 0; i++ {
		fc.Tick()
	}
	if m := s.Metrics(); m.SessionsGCed.Load() != 1 || m.SessionsOpen.Load() != 0 {
		t.Fatalf("session not collected after lease: %+v", m)
	}

	// A fresh attach is a new session with a new executor, fully live.
	nc3, tw3, br3, resumed := rawAttach(t, s, "lifecycle", core.ModeAvoid)
	if resumed {
		t.Fatal("attach after GC resumed a collected session")
	}
	if got := s.Metrics().ExecSpawned.Load(); got != 2 {
		t.Fatalf("executors spawned = %d after GC + re-attach, want 2", got)
	}
	gateRoundTrip(nc3, tw3, br3, 3)
	nc3.Close()
}

// TestConcurrentSessionsParity is the wall the ISSUE asks for: 64
// concurrent sessions (half avoidance, half detection) replay the corpus
// against one server, every one asserting decision-for-decision parity
// with the in-process machinery — the avoidance mirror gate block for
// block, the detect pipeline verdict for verdict. Run under -race in CI,
// this is the correctness case for single-writer executors: many
// executors live at once, each fed by concurrent producers.
func TestConcurrentSessionsParity(t *testing.T) {
	s := testServer(t, Config{})
	corpus := corpusTraces(t)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	expected := make(map[string][]bool, len(names))
	for _, name := range names {
		exp, err := replay.ReplayTrace(corpus[name], replay.Detect, replay.Options{})
		if err != nil {
			t.Fatalf("%s: in-process replay: %v", name, err)
		}
		expected[name] = exp.Verdicts
	}

	const sessions = 64
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := names[i%len(names)]
			tr := corpus[name]
			mode := core.ModeAvoid
			opts := client.ReplayOptions{CheckEvery: 4}
			if i%2 == 1 {
				mode = core.ModeDetect
				opts.Expected = expected[name]
			}
			c, err := client.Dial(client.Config{
				Addr:    s.Addr(),
				Session: fmt.Sprintf("wall-%d", i),
				Mode:    mode,
			})
			if err != nil {
				errCh <- fmt.Errorf("session %d (%s): dial: %w", i, name, err)
				return
			}
			defer c.Close()
			if _, err := client.ReplayTrace(c, tr, opts); err != nil {
				errCh <- fmt.Errorf("session %d (%s, %v): %w", i, name, mode, err)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.SlowDisconnects.Load() != 0 || m.MalformedConns.Load() != 0 {
		t.Fatalf("parity wall tripped failure paths: %+v", m)
	}
	if m.ExecSpawned.Load() < sessions {
		t.Fatalf("executors spawned = %d, want >= %d", m.ExecSpawned.Load(), sessions)
	}
	if m.Batches.Load() < int64(sessions) {
		t.Fatalf("batches = %d, want >= %d", m.Batches.Load(), sessions)
	}
}
