package server

import (
	"encoding/json"
	"slices"
	"time"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/obs"
	"armus/internal/server/proto"
	"armus/internal/trace"
)

// Applying a batch. The read loop that decoded a batch applies it itself,
// under the session lock: the paper's Definition 4.1 makes a blocked status
// a pure function of the blocked task, so merging the statuses of many
// connections is order-insensitive per task, and whichever order the lock
// grants them yields the verdicts an in-process verifier would have. No
// goroutine is woken and no queue is crossed between decode and verdict.

// apply applies one decoded batch under ss.mu. The quiescence gauge counts
// it from before the lock is asked for until it is released, so it reads
// the batches decoded and not yet applied.
func (ss *session) apply(b *batch) {
	ss.srv.m.ExecQueueDepth.Add(1)
	ss.mu.Lock()
	ss.process(b)
	ss.mu.Unlock()
	ss.srv.m.ExecQueueDepth.Add(-1)
}

// process applies one decoded batch — the ingest hot path, run under ss.mu.
// Steady-state (same tasks re-blocking, warm pools and buffers) it
// performs zero heap allocations — guarded by TestExecutorPathZeroAlloc.
func (ss *session) process(b *batch) {
	// Queue-wait stage: decode to the session lock taken. The stamp diffs and
	// histogram adds are a handful of atomics — the path stays
	// allocation-free (TestExecutorPathZeroAlloc, obs.TestStampPathZeroAlloc).
	// Only batches injected by tests lack the read loop's stamp.
	tLocked := obs.Nanotime()
	if b.decNs != 0 {
		ss.batchQueueNs = tLocked - b.decNs
		ss.srv.m.StageQueueWait.Observe(ss.batchQueueNs)
		ss.ob.QueueWait.Observe(ss.batchQueueNs)
	} else {
		ss.batchQueueNs = 0
	}
	c := b.c
	events := b.events[:b.n]
	if ss.fold == nil {
		// Avoidance: every block is a gate with its own answer.
		for i := range events {
			e := &events[i]
			switch e.Kind {
			case trace.KindBlock:
				ss.gate(c, e)
			case trace.KindUnblock:
				ss.eng.Unblock(e.Task)
			case trace.KindVerdict:
				ss.checkpoint(c, e)
			}
		}
	} else {
		// Otherwise only the batch's net effect is applied (netEffect).
		for _, i := range ss.fold.pick(events) {
			e := &events[i]
			switch e.Kind {
			case trace.KindBlock:
				ss.eng.Block(e.Status)
			case trace.KindUnblock:
				ss.eng.Unblock(e.Task)
			case trace.KindVerdict:
				ss.checkpoint(c, e)
			}
		}
	}
	if ss.mode == core.ModeDetect {
		ss.report()
	}
	ss.maybeSnapshot()
	// Verify stage: lock occupancy for the whole batch (gate queries,
	// state mutation, reports, snapshot encode).
	verifyNs := obs.Nanotime() - tLocked
	ss.srv.m.StageVerify.Observe(verifyNs)
	ss.ob.Verify.Observe(verifyNs)
	ss.srv.m.Batches.Add(1)
	ss.srv.m.ExecBatchEvents.Observe(int64(len(events)))
}

// netEffect picks out, in a batch of a session that does not gate, the
// events that must reach the engine. Nothing reads the state between two
// checkpoints of a batch (or between one and the batch's start or end):
// checkpoint answers, the batch-end report, snapshots and LastDeadlocked
// all read it at those boundaries. In an engine that does not gate, Block
// replaces its task's status and Unblock clears it, and Definition 4.1
// makes the state the set of statuses, so at a boundary the state is fixed
// by each task's last mutation since the previous one, applied in any
// order. A block is keyed on Status.Task, the task Block writes, an
// unblock on Task.
//
// One backward pass over the batch finds those last mutations: a task seen
// for the first time in the current checkpoint segment is kept, and each
// checkpoint starts a new segment. The tasks seen go in an open-addressed
// table stamped with the segment's epoch, so starting a segment clears
// nothing. A batch holds at most maxBatch events, so the table is never
// more than half full. Under the session lock.
type netEffect struct {
	order []int32 // pick's result; capacity maxBatch
	slots [1 << netSlotBits]netSlot
	epoch uint64 // the current segment's; 64 bits never wrap
}

type netSlot struct {
	task  deps.TaskID
	epoch uint64
}

// netSlotBits sizes the table at twice maxBatch slots: the constant below
// does not compile if it is smaller.
const netSlotBits = 9

const _ = uint(1<<netSlotBits - 2*maxBatch)

// pick returns the indices of the events to apply or answer, in batch
// order: every checkpoint, and each task's last mutation in each
// checkpoint segment. The result is valid until the next call.
func (f *netEffect) pick(events []trace.Event) []int32 {
	f.order = f.order[:0]
	f.epoch++
	for i := len(events) - 1; i >= 0; i-- {
		e := &events[i]
		switch e.Kind {
		case trace.KindBlock:
			if !f.firstSeen(e.Status.Task) {
				continue
			}
		case trace.KindUnblock:
			if !f.firstSeen(e.Task) {
				continue
			}
		case trace.KindVerdict:
			f.epoch++
		default:
			continue
		}
		f.order = append(f.order, int32(i))
	}
	slices.Reverse(f.order)
	return f.order
}

// firstSeen enters t in the current segment and reports whether it was new
// there. Fibonacci hashing: the top bits of t times 2^64 over the golden
// ratio, then linear probing.
func (f *netEffect) firstSeen(t deps.TaskID) bool {
	for h := uint64(t) * 0x9e3779b97f4a7c15 >> (64 - netSlotBits); ; h = (h + 1) & (1<<netSlotBits - 1) {
		s := &f.slots[h]
		if s.epoch != f.epoch {
			s.task, s.epoch = t, f.epoch
			return true
		}
		if s.task == t {
			return false
		}
	}
}

// checkpoint answers a client->server verdict event: "tell me whether the
// session is deadlocked right now". (Recorded traces carry verdict events
// too; ingesting one costs the sender an answer it may ignore.) Counted and
// recorded before the answer goes: a client that has it may read
// /debug/armus/sessions next.
func (ss *session) checkpoint(c *conn, e *trace.Event) {
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
	c.enqueue(proto.Response{
		Kind:       proto.RespVerdict,
		Seq:        c.checkSeq,
		Deadlocked: d,
	})
}

// gate runs the engine's avoidance gate on a block and encodes the decision
// for the submitting connection only, whose read loop sends it once the
// batch is applied. The decision is counted and recorded before it is
// encoded, and the flight ring dumped after.
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
	c.enqueue(resp)
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
// unchanged) case costs a version compare. The caller holds ss.mu.
func (ss *session) report() {
	cyc := ss.eng.Check()
	d := cyc != nil
	if d && !ss.wasDeadlocked {
		ss.srv.m.Reports.Add(1)
		if ss.srv.seg != nil {
			ss.teeVerdict(trace.VerdictReported, deps.Blocked{}, cyc.Resources)
		}
		ss.srv.cfg.Logf("armus-serve: session %q deadlocked: %v", ss.name, &core.DeadlockError{Cycle: cyc})
		for c := range ss.conns {
			if c.subscribe {
				c.send(proto.Response{
					Kind:      proto.RespReport,
					Tasks:     cyc.Tasks,
					Resources: cyc.Resources,
				})
			}
		}
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
// line. Runs under ss.mu, off the steady-state path (rejections and
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
