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
	"armus/internal/segment"
	"armus/internal/server/proto"
	"armus/internal/trace"
	"armus/internal/trace/replay"
)

// TestExecutorPathZeroAlloc guards the FULL ingest path — wire decode
// (conn.decode, the read loop's own, with the archive tee off and on), the
// decode stamp, session.apply's lock, gate/mutate/checkpoint and the
// coalesced response encode: it allocates nothing per batch once warm, in
// both session modes. With the archive on, its store's goroutine runs
// beside: the stream is sized to stay inside one archive block, so that it
// only appends to a warm buffer. The folding cases have each task block
// four times between checkpoints, so that a detection session skips three
// of every four blocks. Register, arrive and drop frames come between the
// mutations: decoded and teed, they take no slot of the batch.
func TestExecutorPathZeroAlloc(t *testing.T) {
	const (
		tasks   = 64
		batches = 80 // > warmups + AllocsPerRun's 51 calls, and < one archive block
	)
	// structural is task i's register, arrive or drop frame on phaser q,
	// sent for one task a round (i == last): few enough that the measured
	// runs hand the archive 3 or 4 batches, as a stream without them did.
	// A drop spells its phaser in two bytes.
	structural := func(kind trace.Kind, i, last, q int64) []trace.Event {
		if i != last {
			return nil
		}
		if kind == trace.KindDrop {
			q += 100
		}
		return []trace.Event{{Kind: kind, Task: deps.TaskID(i), Phaser: deps.PhaserID(q), Phase: 1, Mode: 1}}
	}
	// One steady round per batch: 64 tasks block (each arrived at its
	// phaser, so the gate admits without refusing), one checkpoint, then
	// everyone unblocks. Deadlock-free, so only the hot path runs.
	var round []trace.Event
	for i := 1; i <= tasks; i++ {
		q := int64(i%8 + 1)
		round = append(round, structural(trace.KindRegister, int64(i), tasks, q)...)
		round = append(round, trace.Event{Kind: trace.KindBlock, Task: deps.TaskID(i),
			Status: status(int64(i), []deps.Resource{res(q, 1)}, []deps.Reg{reg(q, 1)})})
		round = append(round, structural(trace.KindArrive, int64(i), tasks, q)...)
	}
	round = append(round, trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported})
	for i := 1; i <= tasks; i++ {
		round = append(round, trace.Event{Kind: trace.KindUnblock, Task: deps.TaskID(i)})
		round = append(round, structural(trace.KindDrop, int64(i), tasks, int64(i%8+1))...)
	}
	// The folding round: 16 tasks each block at phases 1 to 4, every task
	// at one phase before any at the next (deadlock-free: a task waits only
	// for the phase it is registered at, or for tasks a phase behind it,
	// which wait for nobody), then a checkpoint, then everyone unblocks.
	var foldRound []trace.Event
	for n := int64(1); n <= 4; n++ {
		for i := 1; i <= tasks/4; i++ {
			q := int64(i%8 + 1)
			foldRound = append(foldRound, trace.Event{Kind: trace.KindBlock, Task: deps.TaskID(i),
				Status: status(int64(i), []deps.Resource{res(q, n)}, []deps.Reg{reg(q, n)})})
			if n == 4 {
				foldRound = append(foldRound, structural(trace.KindArrive, int64(i), tasks/4, q)...)
			}
		}
	}
	foldRound = append(foldRound, trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported})
	for i := 1; i <= tasks/4; i++ {
		foldRound = append(foldRound, structural(trace.KindRegister, int64(i), tasks/4, int64(i%8+1))...)
		foldRound = append(foldRound, trace.Event{Kind: trace.KindUnblock, Task: deps.TaskID(i)})
		foldRound = append(foldRound, structural(trace.KindDrop, int64(i), tasks/4, int64(i%8+1))...)
	}

	for _, tc := range []struct {
		mode                    core.Mode
		archive, reblocks, fold bool
	}{
		{core.ModeAvoid, false, false, false}, {core.ModeDetect, false, false, false},
		{core.ModeAvoid, true, false, false}, {core.ModeDetect, true, false, false},
		{core.ModeDetect, false, true, false}, {core.ModeDetect, true, true, false},
		{core.ModeDetect, false, false, true}, {core.ModeDetect, true, false, true},
		{core.ModeDetect, false, true, true}, {core.ModeDetect, true, true, true},
	} {
		mode := tc.mode
		name := mode.String()
		if tc.archive {
			name += "-archived"
		}
		if tc.reblocks {
			name += "-reblocks"
		}
		round := round
		if tc.fold {
			name += "-folding"
			round = foldRound
		}
		eventsPerBatch := 0 // the blocks, unblocks and checkpoints of a round
		for _, e := range round {
			if e.Kind >= trace.KindBlock {
				eventsPerBatch++
			}
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
			ss := newSession(srv, "alloc", mode, nil)
			c := &conn{srv: srv, wsig: make(chan struct{}, 1), done: make(chan struct{})}
			// Every slot's slices start warm: decode ends a batch where the
			// reader's window happens to end on a frame boundary, and from
			// then on the rounds no longer fall on the same slots.
			events := make([]trace.Event, eventsPerBatch)
			for i := range events {
				events[i].Status = status(0, make([]deps.Resource, 0, 1), make([]deps.Reg, 0, 1))
			}
			b := &batch{c: c, events: events}

			decoded, applied := 0, 0
			run := func() {
				// Read loop: decode one batch (and tee it), stamp it, apply
				// it and count its frames.
				if err := c.ingest(tr, ss, b); err != nil || b.n == 0 {
					t.Fatalf("decode: %d events, %v", b.n, err)
				}
				decoded += b.frames
				applied += b.n
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
					// and put the batch back on its free list.
					runtime.Gosched()
				}
			}
			run()
			run() // warm the free list, maps, scratch and both buffers
			for i := 0; tc.archive && i <= teeFlushBytes/(wire.Len()/batches); i++ {
				run() // and the archive batch, which is handed over every teeFlushBytes
			}
			if n := testing.AllocsPerRun(50, run); n != 0 {
				t.Fatalf("ingest path allocates %.1f allocs per batch, want 0", n)
			}
			// Every mutation moves the state's version once; folded, only
			// one block in four and the unblocks reach the engine.
			if v := ss.eng.State().Version(); tc.fold && v > uint64(applied)/2 {
				t.Fatalf("%d state writes for %d events applied: the blocks were not folded", v, applied)
			}
			if decoded == applied || srv.m.Events.Load() != int64(decoded) {
				t.Fatalf("%d frames decoded, %d events applied, events_total %d", decoded, applied, srv.m.Events.Load())
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

// TestCrashGCResumeSessionLifecycle (chaos, on clock.Fake): a client
// crash leaves the session in the table; a reconnect within the lease is
// served by the SAME session, which still holds the pre-crash blocked
// status; after the lease the janitor drops it, and a fresh attach opens a
// new one.
func TestCrashGCResumeSessionLifecycle(t *testing.T) {
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
	if got := s.Metrics().SessionsTotal.Load(); got != 1 {
		t.Fatalf("sessions opened = %d, want 1", got)
	}
	gateRoundTrip(nc, tw, br, 1)

	// Crash. The connection goes; the session stays.
	nc.Close()
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
	fc.Tick() // idle 1 of 2

	// Reconnect inside the lease: same session, holding task 1's status,
	// and it still serves gate decisions.
	nc2, tw2, br2, resumed := rawAttach(t, s, "lifecycle", core.ModeAvoid)
	if !resumed {
		t.Fatal("reconnect within lease did not resume")
	}
	if got := s.Metrics().SessionsTotal.Load(); got != 1 {
		t.Fatalf("resume opened a second session (%d)", got)
	}
	sh := s.shardFor("lifecycle")
	sh.mu.Lock()
	ss := sh.m["lifecycle"]
	sh.mu.Unlock()
	if n := ss.eng.State().Len(); n != 1 {
		t.Fatalf("resumed session holds %d blocked statuses, want the pre-crash 1", n)
	}
	gateRoundTrip(nc2, tw2, br2, 2)

	// Crash again and let the lease run out: the janitor collects the
	// session.
	nc2.Close()
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
	for i := 0; i < 10 && s.Metrics().SessionsGCed.Load() == 0; i++ {
		fc.Tick()
	}
	if m := s.Metrics(); m.SessionsGCed.Load() != 1 || m.SessionsOpen.Load() != 0 {
		t.Fatalf("session not collected after lease: %+v", m)
	}

	// A fresh attach is a new session, fully live.
	nc3, tw3, br3, resumed := rawAttach(t, s, "lifecycle", core.ModeAvoid)
	if resumed {
		t.Fatal("attach after GC resumed a collected session")
	}
	if got := s.Metrics().SessionsTotal.Load(); got != 2 {
		t.Fatalf("sessions opened = %d after GC + re-attach, want 2", got)
	}
	gateRoundTrip(nc3, tw3, br3, 3)
	nc3.Close()
}

// TestConcurrentSessionsParity is the wall the ISSUE asks for: 64
// concurrent sessions (half avoidance, half detection) replay the corpus
// against one server, every one asserting decision-for-decision parity
// with the in-process machinery — the avoidance mirror gate block for
// block, the detect pipeline verdict for verdict. Run under -race in CI,
// this is the correctness case for the session lock: many sessions live at
// once, each applied to by concurrent read loops.
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
	if m.SessionsTotal.Load() < sessions {
		t.Fatalf("sessions opened = %d, want >= %d", m.SessionsTotal.Load(), sessions)
	}
	if m.Batches.Load() < int64(sessions) {
		t.Fatalf("batches = %d, want >= %d", m.Batches.Load(), sessions)
	}
}
