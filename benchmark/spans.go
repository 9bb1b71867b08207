package main

import (
	"encoding/json"
	"os"
	"time"
)

// A span is one call from the driver into a layer's exported function, or
// the operation that caused it. Spans of one operation share its op id
// (worker in the top 16 bits, the operation's ordinal below), and a child
// names its parent by index into the same worker's buffer.
type span struct {
	name   uint8
	parent int32 // -1 for an operation's root span
	op     uint64
	start  int64 // ns since the log was made
	end    int64
}

// spanBuf is one worker's preallocated buffer: recording a span is two
// clock reads and one slot write, nothing is allocated or shared until the
// log is written out after the run.
type spanBuf struct {
	worker uint64
	t0     time.Time
	spans  []span
}

// spanCap bounds one worker's buffer at 8 MiB; with at most three workers
// the whole log stays far under the 64 MiB the benchmark allows itself.
const spanCap = 1 << 18

// spanLog collects the buffers of one traced run. Only every k-th
// operation (by ordinal) is recorded; the counters the per-layer metrics
// are computed from stay exact.
type spanLog struct {
	names []string
	every int64
	t0    time.Time
	bufs  []*spanBuf
}

func newSpanLog(workers int, every int64, names ...string) *spanLog {
	l := &spanLog{names: names, every: every, t0: time.Now()}
	for w := 0; w < workers; w++ {
		l.bufs = append(l.bufs, &spanBuf{worker: uint64(w), t0: l.t0, spans: make([]span, 0, spanCap)})
	}
	return l
}

// sampled returns worker w's buffer when operation ord is one of the
// recorded ones and there is room for it, nil otherwise. A nil log records
// nothing, so drivers need no second code path for untraced runs.
func (l *spanLog) sampled(w int, ord int64) *spanBuf {
	if l == nil || ord%l.every != 0 {
		return nil
	}
	// An operation records at most eight spans.
	if b := l.bufs[w]; len(b.spans)+8 <= cap(b.spans) {
		return b
	}
	return nil
}

// begin opens a span and returns its index, to be passed to end and, as
// parent, to the spans it causes. On a nil buffer both are no-ops.
func (b *spanBuf) begin(name uint8, parent int32, ord int64) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{
		name: name, parent: parent, op: b.worker<<48 | uint64(ord),
		start: int64(time.Since(b.t0)),
	})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) end(i int32) {
	if b != nil {
		b.spans[i].end = int64(time.Since(b.t0))
	}
}

// len is the number of spans recorded so far.
func (l *spanLog) len() (n int) {
	for _, b := range l.bufs {
		n += len(b.spans)
	}
	return n
}

// meanNs is the mean duration of the recorded spans of one name, 0 if there
// are none.
func (l *spanLog) meanNs(name uint8) float64 {
	var sum, n int64
	for _, b := range l.bufs {
		for _, s := range b.spans {
			if s.name == name {
				sum += s.end - s.start
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// spanFile is the on-disk form: one row per span, [name index, parent row
// or -1, op id, start ns, end ns], plus each name's summed self time — a
// span's duration minus the part its children cover.
type spanFile struct {
	Workload    string             `json:"workload"`
	SampleEvery int64              `json:"sample_every"`
	Names       []string           `json:"names"`
	SelfTimeUs  map[string]float64 `json:"self_time_us"`
	Count       map[string]int64   `json:"count"`
	Spans       [][5]int64         `json:"spans"`
}

func (l *spanLog) write(path, workload string) error {
	f := spanFile{
		Workload: workload, SampleEvery: l.every, Names: l.names,
		SelfTimeUs: map[string]float64{}, Count: map[string]int64{},
	}
	for _, b := range l.bufs {
		base := int64(len(f.Spans))
		self := make([]int64, len(b.spans))
		for i, s := range b.spans {
			self[i] += s.end - s.start
			if s.parent >= 0 {
				self[s.parent] -= s.end - s.start
			}
		}
		for i, s := range b.spans {
			parent := int64(-1)
			if s.parent >= 0 {
				parent = base + int64(s.parent)
			}
			f.Spans = append(f.Spans, [5]int64{int64(s.name), parent, int64(s.op), s.start, s.end})
			f.SelfTimeUs[l.names[s.name]] += float64(self[i]) / 1e3
			f.Count[l.names[s.name]]++
		}
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
