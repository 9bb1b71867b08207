package server

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"slices"
	"testing"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/engine"
	"armus/internal/server/proto"
	"armus/internal/trace"
)

// TestDetectNetEffectAgainstEngine holds a detection session, which
// applies only each task's last mutation in a checkpoint segment,
// against an engine that applies every event in order. The batches are the
// ones the read loop's own decode builds from a stream sent in seeded
// rounds, one socket read each, of 1 to maxBatch events on 1 to 12 tasks
// over four phasers, with register, arrive and drop frames between them,
// some spelt in more than one byte. The events re-block with advanced
// phases, block on a changed phaser set, unblock tasks blocked and never
// blocked, close cycles and resolve them, and put checkpoints first, last
// and back to back. Every batch must hold the blocks, unblocks and
// checkpoints that were sent, in order, and no structural frame; every
// checkpoint answer, the state and its verdict after every batch, every
// report a subscribed connection receives and the frame count must be the
// reference's. One wide frame grows the reader's window, so that a run of
// structural frames fills a batch's frame bound, and some batches hold
// structural frames only. (A block frame carries no task beside its
// status's, so a block whose Task is not its Status.Task cannot be sent:
// TestNetEffectKeysBlockOnStatusTask holds pick to its keying directly.)
func TestDetectNetEffectAgainstEngine(t *testing.T) {
	const rounds = 2000
	phasers := []deps.PhaserID{1, 2, 3, 4}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		srv := &Server{cfg: Config{Logf: func(string, ...any) {}}.withDefaults()}
		ss := newSession(srv, "net-effect", core.ModeDetect, nil)
		c := &conn{srv: srv, wsig: make(chan struct{}, 1), done: make(chan struct{}), subscribe: true}
		ss.conns[c] = struct{}{}
		b := &batch{c: c, events: make([]trace.Event, maxBatch)}
		ref, refWas := engine.New(false), false
		prev := map[deps.TaskID]deps.Blocked{} // each task's last status, for re-blocks

		// fresh draws a status waiting on one phaser, registered there at
		// the awaited phase and on each other phaser at a random one, so
		// that cycles form and dissolve.
		fresh := func(task deps.TaskID) deps.Blocked {
			w := deps.Resource{Phaser: phasers[rng.Intn(len(phasers))], Phase: int64(1 + rng.Intn(3))}
			s := deps.Blocked{Task: task, WaitsFor: []deps.Resource{w}}
			for _, q := range phasers {
				if q == w.Phaser {
					s.Regs = append(s.Regs, deps.Reg{Phaser: q, Phase: w.Phase})
				} else if rng.Intn(3) == 0 {
					s.Regs = append(s.Regs, deps.Reg{Phaser: q, Phase: int64(rng.Intn(4))})
				}
			}
			return s
		}
		// advanced is the task's previous status one phase on, on the same
		// phasers in the same order: what a re-block frame carries.
		advanced := func(p deps.Blocked) deps.Blocked {
			s := deps.Blocked{Task: p.Task, WaitsFor: slices.Clone(p.WaitsFor), Regs: slices.Clone(p.Regs)}
			for i := range s.WaitsFor {
				s.WaitsFor[i].Phase++
			}
			for i := range s.Regs {
				s.Regs[i].Phase++
			}
			return s
		}
		// structural draws a register, arrive or drop frame, its IDs past
		// the one-byte spelling one time in eight.
		structural := func() trace.Event {
			e := trace.Event{Kind: trace.KindRegister + trace.Kind(rng.Intn(3)),
				Task: deps.TaskID(1 + rng.Intn(12)), Phaser: phasers[rng.Intn(len(phasers))]}
			if rng.Intn(8) == 0 {
				e.Phaser += 1000
			}
			if e.Kind != trace.KindDrop {
				e.Phase = int64(rng.Intn(100))
			}
			if e.Kind == trace.KindRegister {
				e.Mode = uint8(rng.Intn(3))
			}
			return e
		}

		// The stream: the handshake, the rounds, the footer, a read each.
		var sent []trace.Event
		var chunks [][]byte
		reblocks := 0
		var wire bytes.Buffer
		tw, err := trace.NewWriter(&wire, "net-effect", uint8(core.ModeDetect))
		if err != nil {
			t.Fatal(err)
		}
		cut := func() {
			if err := tw.Flush(); err != nil {
				t.Fatal(err)
			}
			chunks = append(chunks, bytes.Clone(wire.Bytes()))
			wire.Reset()
		}
		write := func(e trace.Event) {
			if err := tw.WriteEvent(e); err != nil {
				t.Fatal(err)
			}
			sent = append(sent, e)
		}
		cut()
		wide := fresh(99)
		for q := deps.PhaserID(100); q < 1600; q++ {
			wide.Regs = append(wide.Regs, deps.Reg{Phaser: q, Phase: 1})
		}
		write(trace.Event{Kind: trace.KindBlock, Task: 99, Status: wide})
		write(trace.Event{Kind: trace.KindUnblock, Task: 99})
		cut()
		for n := 0; n < rounds; n++ {
			size := 1 + rng.Intn(maxBatch)
			switch rng.Intn(10) {
			case 0:
				size = 1
			case 1:
				size = maxBatch
			}
			tasks := 1 + rng.Intn(12)
			checkEvery := 2 + rng.Intn(40)
			between := rng.Intn(3) // structural frames before an event, at most
			if rng.Intn(20) == 0 {
				between = 2 * maxBatchFrames / size
			}
			for i := 0; i < size; i++ {
				for k := rng.Intn(between + 1); k > 0; k-- {
					write(structural())
				}
				task := deps.TaskID(1 + rng.Intn(tasks))
				var e trace.Event
				switch {
				case rng.Intn(checkEvery) == 0 || (i == 0 || i == size-1) && rng.Intn(8) == 0:
					e = trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported}
				case rng.Intn(5) < 3:
					s := fresh(task)
					if p, ok := prev[task]; ok && p.WaitsFor[0].Phase < 6 && rng.Intn(2) == 0 {
						s = advanced(p)
						reblocks++
					}
					prev[task] = s
					e = trace.Event{Kind: trace.KindBlock, Task: task, Status: s}
				default:
					if rng.Intn(6) == 0 {
						task += deps.TaskID(tasks) // never blocked in this round's range
					}
					e = trace.Event{Kind: trace.KindUnblock, Task: task}
				}
				write(e)
			}
			if rng.Intn(10) == 0 {
				write(structural()) // a round that ends in a structural frame
			}
			cut()
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, bytes.Clone(wire.Bytes()))
		tr, err := trace.NewReader(&chunkReader{chunks: chunks})
		if err != nil {
			t.Fatal(err)
		}

		var (
			seq, received, applied                   int64
			batches, answers, deadlockAnswers        int
			dissolved, reports                       int
			skipped, short, full, capped, bare       int
			firstCheckpoints, lastCheckpoints, pairs int
			unblockedIdle, longSpelt                 int
			lastAnswer                               bool
		)
		for pos := 0; ; batches++ {
			if err := c.ingest(tr, ss, b); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batches, err)
			}
			events := b.events[:b.n]
			// The batch holds what was sent, less the structural frames.
			var want []proto.Response
			k := 0
			for _, e := range sent[pos : pos+b.frames] {
				switch e.Kind {
				case trace.KindRegister, trace.KindArrive, trace.KindDrop:
					if e.Phaser > 1000 {
						longSpelt++
					}
					continue
				}
				if k == len(events) || !sameEvent(&events[k], &e) {
					t.Fatalf("seed %d batch %d: event %d of %d frames decoded is %+v, want %+v", seed, batches, k, b.frames, events[min(k, len(events)-1)], e)
				}
				k++
			}
			if k != len(events) {
				t.Fatalf("seed %d batch %d: %d events held, %d sent", seed, batches, len(events), k)
			}
			pos += b.frames
			received += int64(b.frames)
			for i := range events {
				e := &events[i]
				switch e.Kind {
				case trace.KindBlock:
					ref.Block(e.Status)
				case trace.KindUnblock:
					v := ref.State().Version()
					if ref.Unblock(e.Task); ref.State().Version() == v { // it held no status
						unblockedIdle++
					}
				case trace.KindVerdict:
					seq++
					d := ref.Check() != nil
					want = append(want, proto.Response{Kind: proto.RespVerdict, Seq: uint64(seq), Deadlocked: d})
					answers++
					if d {
						deadlockAnswers++
					} else if lastAnswer {
						dissolved++
					}
					lastAnswer = d
					switch {
					case i == 0:
						firstCheckpoints++
					case events[i-1].Kind == trace.KindVerdict:
						pairs++
					}
					if i == len(events)-1 {
						lastCheckpoints++
					}
				}
			}
			switch {
			case len(events) == 0:
				bare++
			case len(events) == 1:
				short++
			case len(events) == maxBatch:
				full++
			}
			if b.frames == maxBatchFrames {
				capped++
			}
			refCyc := ref.Check()
			reportDue := refCyc != nil && !refWas
			refWas = refCyc != nil
			if len(events) > 0 {
				applied++
				// What reached the engine: every checkpoint and the
				// mutations the session kept.
				skipped += len(events) - len(ss.fold.order)
			}

			got := readResponses(t, c)
			var gotReport *proto.Response
			if len(got) > 0 && got[len(got)-1].Kind == proto.RespReport {
				gotReport = &got[len(got)-1]
				got = got[:len(got)-1]
				reports++
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d batch %d: %d answers, want %d", seed, batches, len(got), len(want))
			}
			for i := range want {
				g := got[i]
				if g.Kind != want[i].Kind || g.Seq != want[i].Seq || g.Deadlocked != want[i].Deadlocked {
					t.Fatalf("seed %d batch %d: answer %d = %+v, want %+v\nbatch: %+v", seed, batches, i, g, want[i], events)
				}
			}
			snap := ref.State().Snapshot()
			if gotSnap := ss.eng.State().Snapshot(); !sameStatuses(gotSnap, snap) {
				t.Fatalf("seed %d batch %d: session holds %+v, reference %+v\nbatch: %+v", seed, batches, gotSnap, snap, events)
			}
			if d := ss.eng.Check() != nil; d != refWas || ss.ob.LastDeadlocked.Load() != refWas {
				t.Fatalf("seed %d batch %d: session's verdict %v (last %v), reference %v",
					seed, batches, d, ss.ob.LastDeadlocked.Load(), refWas)
			}
			// Two reference states with several cycles may be searched from
			// different tasks, so a report is held to being a cycle of the
			// state, not to being the reference's.
			if (gotReport != nil) != reportDue {
				t.Fatalf("seed %d batch %d: report %+v, reference transition into deadlock %v", seed, batches, gotReport, reportDue)
			}
			if gotReport != nil && !isCycleOf(snap, gotReport.Tasks, gotReport.Resources) {
				t.Fatalf("seed %d batch %d: reported %v on %v, not a cycle of %+v",
					seed, batches, gotReport.Tasks, gotReport.Resources, snap)
			}
			if got := srv.m.Events.Load(); got != received {
				t.Fatalf("seed %d batch %d: events_total %d, %d received", seed, batches, got, received)
			}
			if got := srv.m.Batches.Load(); got != applied {
				t.Fatalf("seed %d batch %d: batches_total %d, %d applied", seed, batches, got, applied)
			}
		}
		t.Logf("seed %d: %d batches (%d of 1 event, %d full, %d at the frame bound, %d of structural frames only), "+
			"%d frames, %d mutations skipped; %d answers (%d deadlocked, %d dissolved), %d reports; "+
			"%d re-blocks, %d unblocks of an unblocked task, %d structural frames spelt long; "+
			"checkpoints %d first, %d last, %d back to back",
			seed, batches, short, full, capped, bare, received, skipped, answers, deadlockAnswers, dissolved, reports,
			reblocks, unblockedIdle, longSpelt, firstCheckpoints, lastCheckpoints, pairs)
		if int(received) != len(sent) || short == 0 || full == 0 || capped == 0 || bare == 0 || skipped == 0 ||
			deadlockAnswers < answers/20 || deadlockAnswers > answers*19/20 ||
			dissolved == 0 || reports == 0 || reblocks == 0 || unblockedIdle == 0 || longSpelt == 0 ||
			firstCheckpoints == 0 || lastCheckpoints == 0 || pairs == 0 {
			t.Fatalf("seed %d: the batches missed a case they are there for", seed)
		}
	}
}

// chunkReader hands out one chunk per Read, or as much of it as fits: a
// socket on which each chunk arrives at once.
type chunkReader struct{ chunks [][]byte }

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.chunks[0])
	if r.chunks[0] = r.chunks[0][n:]; len(r.chunks[0]) == 0 {
		r.chunks = r.chunks[1:]
	}
	return n, nil
}

// sameEvent compares the fields a decoded event of a's kind carries.
func sameEvent(a, b *trace.Event) bool {
	return a.Kind == b.Kind && a.Task == b.Task && a.Verdict == b.Verdict && a.Status.Task == b.Status.Task &&
		slices.Equal(a.Status.WaitsFor, b.Status.WaitsFor) && slices.Equal(a.Status.Regs, b.Status.Regs)
}

// readResponses decodes and empties the connection's coalesce buffer, as a
// flush would.
func readResponses(t *testing.T, c *conn) []proto.Response {
	t.Helper()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	br := bufio.NewReader(bytes.NewReader(c.wbuf))
	var out []proto.Response
	for {
		var r proto.Response
		if err := proto.ReadResponse(br, &r); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("response %d: %v", len(out), err)
		}
		out = append(out, r)
	}
	c.wbuf, c.wcount = c.wbuf[:0], 0
	select {
	case <-c.wsig:
	default:
	}
	return out
}

func sameStatuses(a, b []deps.Blocked) bool {
	return slices.EqualFunc(a, b, func(x, y deps.Blocked) bool {
		return x.Task == y.Task && slices.Equal(x.WaitsFor, y.WaitsFor) && slices.Equal(x.Regs, y.Regs)
	})
}

// TestNetEffectKeysBlockOnStatusTask feeds pick blocks whose Task is not
// their Status.Task: a block is keyed on the task it writes, Status.Task,
// and an unblock on Task.
func TestNetEffectKeysBlockOnStatusTask(t *testing.T) {
	block := func(task, writes deps.TaskID) trace.Event {
		return trace.Event{Kind: trace.KindBlock, Task: task, Status: deps.Blocked{Task: writes}}
	}
	for _, tc := range []struct {
		events []trace.Event
		want   []int32
	}{
		// The unblock of task 2 is task 2's last mutation, so the first
		// block, which writes task 2, goes; the second writes task 1.
		{[]trace.Event{block(1, 2), block(2, 1), {Kind: trace.KindUnblock, Task: 2}}, []int32{1, 2}},
		// Two blocks of one Task that write different tasks both stay; two
		// that write one task keep the last.
		{[]trace.Event{block(1, 1), block(1, 2), block(3, 2)}, []int32{0, 2}},
	} {
		f := &netEffect{order: make([]int32, 0, maxBatch)}
		if got := f.pick(tc.events); !slices.Equal(got, tc.want) {
			t.Errorf("pick(%+v) = %v, want %v", tc.events, got, tc.want)
		}
	}
}

// isCycleOf reports whether tasks form a cycle of snap's waits-for graph —
// each blocked, waiting for an event the next one impedes — and resources
// are the events they await, each once, in the order of tasks.
func isCycleOf(snap []deps.Blocked, tasks []deps.TaskID, resources []deps.Resource) bool {
	status := func(t deps.TaskID) (deps.Blocked, bool) {
		i := slices.IndexFunc(snap, func(s deps.Blocked) bool { return s.Task == t })
		if i < 0 {
			return deps.Blocked{}, false
		}
		return snap[i], true
	}
	var awaited []deps.Resource
	for i, t := range tasks {
		from, ok := status(t)
		to, ok2 := status(tasks[(i+1)%len(tasks)])
		if !ok || !ok2 || !slices.ContainsFunc(from.WaitsFor, func(w deps.Resource) bool {
			return slices.ContainsFunc(to.Regs, func(r deps.Reg) bool { return r.Phaser == w.Phaser && r.Phase < w.Phase })
		}) {
			return false
		}
		for _, w := range from.WaitsFor {
			if !slices.Contains(awaited, w) {
				awaited = append(awaited, w)
			}
		}
	}
	return len(tasks) > 0 && slices.Equal(awaited, resources)
}
