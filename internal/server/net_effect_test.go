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
// against an engine that applies every event in order. Seeded batches of 1
// to maxBatch events on 1 to 12 tasks over four phasers re-block with
// advanced phases, block on a changed phaser set, unblock tasks blocked
// and never blocked, block with a Task other than its Status.Task, close
// cycles and resolve them, and put checkpoints first, last and back to
// back. Every checkpoint answer, the state and its verdict after every
// batch, every report a subscribed connection receives and the event count
// must be the reference's.
func TestDetectNetEffectAgainstEngine(t *testing.T) {
	const batches = 2000
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

		var (
			seq, received                            int64
			answers, deadlockAnswers, dissolved      int
			reports, mismatchedTasks, skipped, short int
			firstCheckpoints, lastCheckpoints, pairs int
			reblocks, unblockedIdle, full            int
			lastAnswer                               bool
		)
		for n := 0; n < batches; n++ {
			size := 1 + rng.Intn(maxBatch)
			switch rng.Intn(10) {
			case 0:
				size = 1
			case 1:
				size = maxBatch
			}
			tasks := 1 + rng.Intn(12)
			checkEvery := 2 + rng.Intn(40)
			events := b.events[:size]
			var want []proto.Response
			for i := range events {
				task := deps.TaskID(1 + rng.Intn(tasks))
				e := &events[i]
				switch {
				case rng.Intn(checkEvery) == 0 || (i == 0 || i == size-1) && rng.Intn(8) == 0:
					*e = trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported}
				case rng.Intn(5) < 3:
					s := fresh(task)
					if p, ok := prev[task]; ok && p.WaitsFor[0].Phase < 6 && rng.Intn(2) == 0 {
						s = advanced(p)
						reblocks++
					}
					prev[task] = s
					*e = trace.Event{Kind: trace.KindBlock, Task: task, Status: s}
					if rng.Intn(12) == 0 {
						e.Task = deps.TaskID(1 + rng.Intn(tasks+2))
					}
				default:
					if rng.Intn(6) == 0 {
						task += deps.TaskID(tasks) // never blocked in this batch's range
					}
					*e = trace.Event{Kind: trace.KindUnblock, Task: task}
				}
				switch e.Kind {
				case trace.KindBlock:
					ref.Block(e.Status)
					if e.Task != e.Status.Task {
						mismatchedTasks++
					}
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
					if i == size-1 {
						lastCheckpoints++
					}
				}
			}
			if size == maxBatch {
				full++
			}
			refCyc := ref.Check()
			reportDue := refCyc != nil && !refWas
			refWas = refCyc != nil

			b.n = size
			ss.apply(b)
			received += int64(size)
			// What reached the engine: every checkpoint and the mutations
			// the session kept.
			skipped += size - len(ss.fold.order)

			got := readResponses(t, c)
			var gotReport *proto.Response
			if len(got) > 0 && got[len(got)-1].Kind == proto.RespReport {
				gotReport = &got[len(got)-1]
				got = got[:len(got)-1]
				reports++
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d batch %d: %d answers, want %d", seed, n, len(got), len(want))
			}
			for i := range want {
				g := got[i]
				if g.Kind != want[i].Kind || g.Seq != want[i].Seq || g.Deadlocked != want[i].Deadlocked {
					t.Fatalf("seed %d batch %d: answer %d = %+v, want %+v\nbatch: %+v", seed, n, i, g, want[i], events)
				}
			}
			snap := ref.State().Snapshot()
			if gotSnap := ss.eng.State().Snapshot(); !sameStatuses(gotSnap, snap) {
				t.Fatalf("seed %d batch %d: session holds %+v, reference %+v\nbatch: %+v", seed, n, gotSnap, snap, events)
			}
			if d := ss.eng.Check() != nil; d != refWas || ss.ob.LastDeadlocked.Load() != refWas {
				t.Fatalf("seed %d batch %d: session's verdict %v (last %v), reference %v",
					seed, n, d, ss.ob.LastDeadlocked.Load(), refWas)
			}
			// Two reference states with several cycles may be searched from
			// different tasks, so a report is held to being a cycle of the
			// state, not to being the reference's.
			if (gotReport != nil) != reportDue {
				t.Fatalf("seed %d batch %d: report %+v, reference transition into deadlock %v", seed, n, gotReport, reportDue)
			}
			if gotReport != nil && !isCycleOf(snap, gotReport.Tasks, gotReport.Resources) {
				t.Fatalf("seed %d batch %d: reported %v on %v, not a cycle of %+v",
					seed, n, gotReport.Tasks, gotReport.Resources, snap)
			}
			if got := srv.m.Events.Load(); got != received {
				t.Fatalf("seed %d batch %d: events_total %d, %d received", seed, n, got, received)
			}
			if size == 1 {
				short++
			}
		}
		t.Logf("seed %d: %d batches (%d of 1 event, %d full), %d events, %d mutations skipped; %d answers (%d deadlocked, %d dissolved), "+
			"%d reports; %d re-blocks, %d blocks with Task != Status.Task, %d unblocks of an unblocked task; "+
			"checkpoints %d first, %d last, %d back to back",
			seed, batches, short, full, received, skipped, answers, deadlockAnswers, dissolved, reports,
			reblocks, mismatchedTasks, unblockedIdle, firstCheckpoints, lastCheckpoints, pairs)
		if short == 0 || full == 0 || skipped == 0 || deadlockAnswers < answers/20 || deadlockAnswers > answers*19/20 ||
			dissolved == 0 || reports == 0 || reblocks == 0 || mismatchedTasks == 0 || unblockedIdle == 0 ||
			firstCheckpoints == 0 || lastCheckpoints == 0 || pairs == 0 {
			t.Fatalf("seed %d: the batches missed a case they are there for", seed)
		}
	}
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
