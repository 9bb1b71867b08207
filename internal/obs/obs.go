// Package obs is the telemetry toolkit: nanosecond stamps, the one
// histogram type every layer measures with (hist.go), metric series
// declared once as struct fields and rendered from them (metrics.go), and
// a lock-free per-session flight recorder of recent verification decisions.
//
// PR 6 established that the client-observed gate round trip is floored by
// the hardware (846µs raw TCP echo RTT on the 1-core CI container), but
// nothing could say how much of a slow gate was queue wait, verifier work,
// or egress flush. This package provides that attribution without giving
// up the ingest path's zero-allocation guarantee: every primitive here is
// a handful of atomic operations per observation — no locks, no maps, no
// per-sample allocation — so stage timing stays ALWAYS ON, in production,
// at full load.
//
// The three stages of a gate, as threaded through internal/server:
//
//	decode ──► lock taken ──► verify done ──► flush
//	└queue-wait┘└── verify ───┘└────── flush ─────┘
//
// Queue-wait runs from decode (read loop) to the session lock taken —
// it grows when the lock is contended or the read loop is starved of CPU.
// Verify is the lock's occupancy for the batch — the actual deadlock
// verification work (gate queries, state mutation, reports). Flush runs
// from a response entering the connection's coalesce buffer to the
// writer's syscall completing — it grows when egress coalescing backs up
// behind a slow socket.
//
// All times are int64 nanoseconds from Nanotime, a monotonic reading that
// is valid only for differences within one process.
package obs

import (
	"runtime"
	"sync/atomic"
	"time"
)

// epoch anchors Nanotime; time.Since on a monotonic Time is a single
// clock read, no allocation.
var epoch = time.Now()

// Nanotime returns monotonic nanoseconds since process start. Only
// differences are meaningful.
func Nanotime() int64 { return int64(time.Since(epoch)) }

// Stats condenses a snapshot into the microsecond summary served by the
// /debug/armus/sessions endpoint and printed by armus-loadgen.
func (s HistSnapshot) Stats() StageStats {
	return StageStats{
		Count: s.Count,
		P50Us: s.Percentile(50) / 1000,
		P99Us: s.Percentile(99) / 1000,
		MaxUs: s.Percentile(100) / 1000,
		SumUs: s.Sum / 1000,
	}
}

// StageStats is the wire form of one stage histogram: the JSON block the
// server's /debug/armus/sessions endpoint serves and the client SDK's
// FetchServerStages decodes.
type StageStats struct {
	Count int64 `json:"count"`
	P50Us int64 `json:"p50_us"`
	P99Us int64 `json:"p99_us"`
	MaxUs int64 `json:"max_us"`
	SumUs int64 `json:"sum_us"`
}

// Stages is the three-stage breakdown of the ingestion path.
type Stages struct {
	QueueWait StageStats `json:"queue_wait"`
	Verify    StageStats `json:"verify"`
	Flush     StageStats `json:"flush"`
}

// StagesOf summarises three stage histograms, a session's or the server's.
func StagesOf(queueWait, verify, flush *Hist) Stages {
	return Stages{queueWait.Snapshot().Stats(), verify.Snapshot().Stats(), flush.Snapshot().Stats()}
}

// Record kinds for the flight recorder.
const (
	RecordGate       uint8 = iota // an avoidance-gate decision
	RecordCheckpoint              // a client checkpoint verdict
	RecordReport                  // a detection-mode deadlock report transition
)

// KindString names a record kind for logs and JSON.
func KindString(k uint8) string {
	switch k {
	case RecordGate:
		return "gate"
	case RecordCheckpoint:
		return "checkpoint"
	case RecordReport:
		return "report"
	}
	return "unknown"
}

// GateRecord is one verification decision in a session's flight ring:
// which task, its per-kind ordinal (the linkage into the session's
// archived trace — the Nth gate record is the Nth gated block of the
// session's segment stream), the stage breakdown, and the outcome.
type GateRecord struct {
	Ordinal    uint64 `json:"ordinal"` // 1-based, per kind, per session
	Kind       uint8  `json:"kind"`
	Task       int64  `json:"task"`
	Rejected   bool   `json:"rejected"`   // gate records: block refused
	Deadlocked bool   `json:"deadlocked"` // checkpoint/report records: verdict
	QueueNs    int64  `json:"queue_ns"`   // batch queue-wait attributed to this decision
	VerifyNs   int64  `json:"verify_ns"`  // this decision's own verifier work
	AtNs       int64  `json:"at_ns"`      // Nanotime when processing began
}

// FlightRecords is the ring capacity: the last N decisions of a session.
const FlightRecords = 64

// recWords is the packed atomic size of one ring slot: a leading and a
// trailing write-id word (the slot's sequence lock) around six field
// words.
const recWords = 8

const (
	flagRejected   = 1 << 8
	flagDeadlocked = 1 << 9
)

// FlightRecorder is a lock-free ring of the last FlightRecords decisions.
// One writer at a time (the session lock's holder) records; any number of
// readers snapshot concurrently. Each slot is its own sequence lock of atomic
// words: the writer brackets the six field stores with the write's id in
// the slot's first and last word, and a reader accepts a slot only when
// both ids match after the field loads. A collision means the writer
// lapped onto that very slot mid-read — the retry simply reads the newer
// record. Record is 8 plain atomic stores plus one counter store: no
// locks, no allocation, data-race-free by construction (every shared word
// is atomic).
type FlightRecorder struct {
	n    atomic.Uint64 // records ever written
	ring [FlightRecords][recWords]atomic.Int64
}

// Record appends r to the ring, overwriting the oldest. Single writer.
func (f *FlightRecorder) Record(r GateRecord) {
	n := f.n.Load()
	s := &f.ring[n%FlightRecords]
	id := int64(n + 1) // nonzero, unique per write
	flags := int64(r.Kind)
	if r.Rejected {
		flags |= flagRejected
	}
	if r.Deadlocked {
		flags |= flagDeadlocked
	}
	s[0].Store(id)
	s[1].Store(int64(r.Ordinal))
	s[2].Store(flags)
	s[3].Store(r.Task)
	s[4].Store(r.QueueNs)
	s[5].Store(r.VerifyNs)
	s[6].Store(r.AtNs)
	s[7].Store(id)
	f.n.Store(n + 1)
}

// Len reports how many records the ring currently holds.
func (f *FlightRecorder) Len() int {
	n := f.n.Load()
	if n > FlightRecords {
		return FlightRecords
	}
	return int(n)
}

// Snapshot appends the ring's records to buf, oldest first, and returns
// it. Every returned record is internally consistent (one Record call's
// fields); a slot the writer laps mid-read is re-read — yielding the
// newer record — and skipped entirely if it stays contended past a
// bounded number of attempts (a debug surface must never spin against a
// hot session).
func (f *FlightRecorder) Snapshot(buf []GateRecord) []GateRecord {
	buf = buf[:0]
	n := f.n.Load()
	k := n
	if k > FlightRecords {
		k = FlightRecords
	}
	for j := n - k; j < n; j++ {
		s := &f.ring[j%FlightRecords]
		for attempt := 0; attempt < 16; attempt++ {
			// The writer stores s[0] first and s[7] last, so equal nonzero
			// ids observed AROUND the field loads (s[7] before, s[0] after)
			// bracket a completed write.
			id := s[7].Load()
			flags := s[2].Load()
			rec := GateRecord{
				Ordinal:    uint64(s[1].Load()),
				Kind:       uint8(flags & 0xff),
				Rejected:   flags&flagRejected != 0,
				Deadlocked: flags&flagDeadlocked != 0,
				Task:       s[3].Load(),
				QueueNs:    s[4].Load(),
				VerifyNs:   s[5].Load(),
				AtNs:       s[6].Load(),
			}
			if id != 0 && s[0].Load() == id {
				buf = append(buf, rec)
				break
			}
			runtime.Gosched()
		}
	}
	return buf
}

// SessionObs is the per-session observability block: stage histograms,
// decision counters, and the flight ring. Everything is atomic — the
// session lock's holder writes on the hot path, the /debug handler and
// metrics scrape read concurrently — and nothing here allocates after the
// session is built.
type SessionObs struct {
	QueueWait Hist
	Verify    Hist
	Flush     Hist

	Gates       atomic.Int64 // avoidance-gate decisions (its ordinal space)
	Rejections  atomic.Int64 // gates refused
	Checkpoints atomic.Int64 // checkpoint verdicts answered (its ordinal space)
	Reports     atomic.Int64 // deadlock report transitions (its ordinal space)

	// LastDeadlocked is the most recent verdict the session computed (a
	// checkpoint answer or a report transition edge).
	LastDeadlocked atomic.Bool

	Flight FlightRecorder
}
