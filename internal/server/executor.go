package server

import (
	"encoding/json"
	"runtime"
	"time"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/obs"
	"armus/internal/server/proto"
	"armus/internal/trace"
)

// The session executor: one goroutine per session that owns the session's
// engine outright. Read loops decode and enqueue; only the executor
// mutates the engine or asks it anything. Single-writer is what
// lets the gate hot path drop every lock: the paper's Definition 4.1 makes
// a blocked status a pure function of the blocked task, so merging the
// statuses of many connections is order-insensitive per task — any
// serialization the queue happens to produce yields the same verdicts an
// in-process verifier would have, and one owner goroutine is the cheapest
// serializer there is.

// Executor states (session.execState).
const (
	execRunning int32 = iota
	execParked
)

// enqueue hands a decoded batch to the session executor, waking it if it
// parked. Called by connection read loops only; the executor lifecycle
// guarantees it outlives every producer (see shutdownExecutor).
//
// The no-lost-wakeup argument: push increments q.depth before the node is
// published, and both sides use sequentially consistent atomics. If the
// executor's post-park depth check misses this push, then in the total
// order the check preceded the increment, so the parked store preceded
// this state load — the producer sees execParked and signals. If it does
// not miss it, the executor unparks itself. Either way the batch is
// processed.
func (ss *session) enqueue(b *batch) {
	if b.decNs == 0 {
		// No read-loop decode stamp (tests, internal injection): the
		// queue-wait stage starts here.
		b.enqNs = obs.Nanotime()
	}
	ss.q.push(b)
	if ss.execState.Load() == execParked &&
		ss.execState.CompareAndSwap(execParked, execRunning) {
		select {
		case ss.wake <- struct{}{}:
		default:
		}
	}
}

// runExecutor is the session's event loop: pop, process, park when idle,
// drain and exit on stop.
func (ss *session) runExecutor() {
	defer close(ss.execDone)
	for {
		if b := ss.q.pop(); b != nil {
			ss.process(b)
			continue
		}
		if ss.q.depth.Load() != 0 {
			// A producer is mid-push; its link is one store away.
			runtime.Gosched()
			continue
		}
		select {
		case <-ss.stop:
			ss.drainQueue()
			return
		default:
		}
		// Park. Publish the parked state first, then re-check the depth:
		// a push that raced the publish is either seen here (un-park
		// ourselves) or saw execParked and is signalling wake.
		ss.execState.Store(execParked)
		if ss.q.depth.Load() != 0 {
			if ss.execState.CompareAndSwap(execParked, execRunning) {
				continue
			}
		}
		ss.srv.m.ExecParks.Add(1)
		select {
		case <-ss.wake:
			// The waking producer already moved execState to running.
		case <-ss.stop:
			ss.execState.Store(execRunning)
			ss.drainQueue()
			return
		}
	}
}

// drainQueue processes everything enqueued before stop. stop is only
// closed once no producer can push again, so the queue strictly shrinks.
func (ss *session) drainQueue() {
	for {
		b := ss.q.pop()
		if b == nil {
			if ss.q.depth.Load() != 0 {
				runtime.Gosched()
				continue
			}
			return
		}
		ss.process(b)
	}
}

// process applies one decoded batch — the ingest hot path, running on the
// executor goroutine with exclusive engine ownership: no lock anywhere.
// Steady-state (same tasks re-blocking, warm pools and buffers) it
// performs zero heap allocations — guarded by TestExecutorPathZeroAlloc.
func (ss *session) process(b *batch) {
	// Queue-wait stage: decode (or enqueue) to executor pickup. The stamp
	// diffs and histogram adds are a handful of atomics — the path stays
	// allocation-free (TestExecutorPathZeroAlloc, TestObsStampPathZeroAlloc).
	tDeq := obs.Nanotime()
	start := b.decNs
	if start == 0 {
		start = b.enqNs
	}
	if start != 0 {
		ss.batchQueueNs = tDeq - start
		ss.srv.m.StageQueueWait.Observe(ss.batchQueueNs)
		ss.ob.QueueWait.Observe(ss.batchQueueNs)
	} else {
		ss.batchQueueNs = 0
	}
	c := b.c
	events := b.events[:b.n]
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case trace.KindBlock:
			if ss.mode == core.ModeAvoid {
				ss.gate(c, e)
			} else {
				ss.eng.Block(e.Status)
			}
		case trace.KindUnblock:
			ss.eng.Unblock(e.Task)
		case trace.KindVerdict:
			// A client->server verdict event is a CHECKPOINT: "tell me
			// whether the session is deadlocked right now". (Recorded
			// traces carry verdict events too; ingesting one costs the
			// sender an answer it may ignore.) Counted and recorded before
			// the answer goes: a client that has it may read
			// /debug/armus/sessions next.
			t0 := obs.Nanotime()
			c.checkSeq++
			ss.srv.m.Checkpoints.Add(1)
			d := ss.eng.Check() != nil
			ss.ob.LastDeadlocked.Store(d)
			ss.ob.Flight.Record(obs.GateRecord{
				Ordinal:    uint64(ss.ob.Checkpoints.Add(1)),
				Kind:       obs.RecordCheckpoint,
				Task:       int64(e.Task),
				Deadlocked: d,
				QueueNs:    ss.batchQueueNs,
				VerifyNs:   obs.Nanotime() - t0,
				AtNs:       t0,
			})
			c.send(proto.Response{
				Kind:       proto.RespVerdict,
				Seq:        c.checkSeq,
				Deadlocked: d,
			})
		}
	}
	if ss.mode == core.ModeDetect {
		ss.report()
	}
	ss.maybeSnapshot()
	// Verify stage: executor occupancy for the whole batch (gate queries,
	// state mutation, reports, snapshot encode).
	verifyNs := obs.Nanotime() - tDeq
	ss.srv.m.StageVerify.Observe(verifyNs)
	ss.ob.Verify.Observe(verifyNs)
	ss.srv.m.Events.Add(int64(len(events)))
	ss.srv.m.Batches.Add(1)
	ss.srv.m.ExecBatchEvents.Observe(int64(len(events)))
	c.applied.Add(1)
	c.recycle(b)
}

// gate runs the engine's avoidance gate on a block and sends the decision
// back to the submitting connection only. The decision is counted and
// recorded before it is sent, and the flight ring dumped after.
func (ss *session) gate(c *conn, e *trace.Event) {
	t0 := obs.Nanotime()
	cyc := ss.eng.Block(e.Status)
	resp := proto.Response{Kind: proto.RespGate, Task: e.Status.Task, Allowed: cyc == nil}
	if cyc == nil {
		ss.srv.m.GateAllowed.Add(1)
	} else {
		ss.srv.m.GateRejected.Add(1)
		ss.ob.Rejections.Add(1)
		if ss.srv.seg != nil {
			ss.teeVerdict(trace.VerdictRejected, e.Status, cyc.Resources)
		}
		// cyc is freshly allocated by the deadlock path; handing its slices
		// to the coalesce buffer is safe.
		resp.Tasks, resp.Resources = cyc.Tasks, cyc.Resources
	}
	rec := obs.GateRecord{
		Ordinal:  uint64(ss.ob.Gates.Add(1)),
		Kind:     obs.RecordGate,
		Task:     int64(e.Status.Task),
		Rejected: cyc != nil,
		QueueNs:  ss.batchQueueNs,
		VerifyNs: obs.Nanotime() - t0,
		AtNs:     t0,
	}
	ss.ob.Flight.Record(rec)
	c.send(resp)
	if cyc != nil {
		ss.dumpFlight("gate-rejected", rec)
	} else if sg := ss.srv.cfg.SlowGate; sg > 0 && rec.QueueNs+rec.VerifyNs >= int64(sg) {
		// Slow-gate trigger: server-side time (queue wait plus this gate's
		// own work) over the operator threshold dumps the flight ring.
		ss.dumpFlight("slow-gate", rec)
	}
}

// report pushes a deadlock report to every subscribed connection of the
// session when the state transitions into a deadlock. The detection
// engine's Check is version-cached, so the steady (non-deadlocked,
// unchanged) case costs a version compare; ss.mu is only taken on the
// transition.
func (ss *session) report() {
	cyc := ss.eng.Check()
	d := cyc != nil
	if d && !ss.wasDeadlocked {
		ss.srv.m.Reports.Add(1)
		if ss.srv.seg != nil {
			ss.teeVerdict(trace.VerdictReported, deps.Blocked{}, cyc.Resources)
		}
		ss.srv.cfg.Logf("armus-serve: session %q deadlocked: %v", ss.name, &core.DeadlockError{Cycle: cyc})
		ss.mu.Lock()
		for c := range ss.conns {
			if c.subscribe {
				c.send(proto.Response{
					Kind:      proto.RespReport,
					Tasks:     cyc.Tasks,
					Resources: cyc.Resources,
				})
			}
		}
		ss.mu.Unlock()
		now := obs.Nanotime()
		ss.ob.Flight.Record(obs.GateRecord{
			Ordinal:    uint64(ss.ob.Reports.Add(1)),
			Kind:       obs.RecordReport,
			Deadlocked: true,
			QueueNs:    ss.batchQueueNs,
			AtNs:       now,
		})
	}
	ss.ob.LastDeadlocked.Store(d)
	ss.wasDeadlocked = d
}

// flightDumpMinGap rate-limits flight-recorder dumps per session: a storm
// of rejections (one contended phaser, many tasks) emits one dump per gap,
// not one per gate.
const flightDumpMinGap = int64(100 * time.Millisecond)

// flightDump is the structured record a slow or rejected gate emits: the
// triggering decision plus the session's whole flight ring, with the
// session name and per-kind ordinals that `armus-trace query -session
// <name>` resolves back to the archived events.
type flightDump struct {
	Session string           `json:"session"`
	Mode    string           `json:"mode"`
	Trigger string           `json:"trigger"` // "slow-gate" | "gate-rejected"
	Record  obs.GateRecord   `json:"record"`
	Ring    []obs.GateRecord `json:"ring"`
}

// dumpFlight emits the session's flight ring as one structured JSON log
// line. Runs on the executor, off the steady-state path (rejections and
// threshold breaches only) — allocation here is acceptable, a dump storm
// is not, hence the rate limit.
func (ss *session) dumpFlight(trigger string, rec obs.GateRecord) {
	now := obs.Nanotime()
	if ss.lastDumpNs != 0 && now-ss.lastDumpNs < flightDumpMinGap {
		return
	}
	ss.lastDumpNs = now
	ss.flightBuf = ss.ob.Flight.Snapshot(ss.flightBuf)
	j, err := json.Marshal(flightDump{
		Session: ss.name,
		Mode:    ss.mode.String(),
		Trigger: trigger,
		Record:  rec,
		Ring:    ss.flightBuf,
	})
	if err != nil {
		return
	}
	ss.srv.cfg.DumpLogf("armus-serve: flight-recorder %s", j)
}
