package server

import (
	"time"

	"armus/internal/deps"
	"armus/internal/trace"
)

// tee.go is the archive half of ingestion. When Config.SegmentDir is
// set, every decoded event batch is copied into the durable trace
// archive (internal/segment) before it reaches the session executor,
// and the server's own verdict transitions (gate rejections, deadlock
// reports) are appended as verdict annotations. Both paths only encode
// frames and perform one non-blocking channel send; all file I/O
// happens on the archive's own goroutine, so a slow or full disk can
// drop archive batches (counted) but can never stall verification.

// Tee coalescing bounds: a connection's pending archive frames are
// flushed to the store once they reach teeFlushBytes or once the oldest
// pending frame is teeFlushAge old. Gated avoidance traffic decodes one
// event per batch (each block round-trips), so without coalescing every
// gate would cost a store batch; with it, hot connections amortize the
// channel, pool and writer-dispatch overhead across hundreds of events
// while a trickling connection still archives within ~100ms.
const (
	teeFlushBytes = 8 << 10
	teeFlushAge   = 100 * time.Millisecond
)

// tee re-encodes the batch's events into self-contained wire frames on
// the connection's pending archive batch, flushing it to the segment
// store by size or age. It runs on the connection read loop, after
// decode and before enqueue, so the archive order is the order this
// connection's events entered the session — one valid linearization of
// the merged trace (blocked status is a pure function of the task,
// Def. 4.1, so per-task order is all that matters and each task arrives
// on one connection). The events must be copied rather than aliased:
// the decode batch cycles back through the connection's free ring and
// its slices point into the reader's buffers.
func (c *conn) tee(ss *session, b *batch) {
	s := c.srv
	tb := c.teePending
	if tb == nil {
		tb = s.seg.NewBatch()
		tb.Session = ss.name
		tb.Mode = uint8(ss.mode)
		c.teePending = tb
		c.teeSince = time.Now()
	}
	for i := 0; i < b.n; i++ {
		e := &b.events[i]
		frames, err := trace.AppendEventFrame(tb.Frames, *e)
		if err != nil {
			// Unreachable for events the codec itself just decoded;
			// skip the frame rather than poison the whole batch.
			continue
		}
		if e.Kind == trace.KindVerdict {
			tb.Verdicts = append(tb.Verdicts, tb.Events)
		}
		tb.Frames = frames
		tb.Events++
	}
	if len(tb.Frames) >= teeFlushBytes || time.Since(c.teeSince) >= teeFlushAge {
		c.teeFlush()
	}
}

// teeFlush hands the connection's pending archive batch to the store
// (non-blocking; a full queue drops it, counted). Called by size/age
// from tee and unconditionally when the read loop ends, so a closing
// connection archives its tail.
func (c *conn) teeFlush() {
	if c.teePending == nil {
		return
	}
	c.srv.seg.Append(c.teePending)
	c.teePending = nil
}

// teeVerdict archives a server-computed verdict transition — a gate
// rejection (avoidance) or a deadlock report (detection) — so that
// `armus-trace query -verdicts` surfaces every transition for a
// session. The event carries the refused status and the cycle's
// resources for operators, but deliberately an EMPTY task list: the
// archive is ordered by read-loop tee time while verdicts are computed
// in executor order, so replay must count these annotations rather
// than re-assert them (replay only asserts verdict events that name
// tasks). Client checkpoints travel in the ingress stream itself and
// are archived by teeBatch.
func (ss *session) teeVerdict(verdict trace.VerdictKind, status deps.Blocked, resources []deps.Resource) {
	s := ss.srv
	tb := s.seg.NewBatch()
	tb.Session = ss.name
	tb.Mode = uint8(ss.mode)
	frames, err := trace.AppendEventFrame(tb.Frames, trace.Event{
		Kind:      trace.KindVerdict,
		Verdict:   verdict,
		Status:    status,
		Resources: resources,
	})
	if err != nil {
		s.seg.Release(tb)
		return
	}
	tb.Frames = frames
	tb.Events = 1
	tb.Verdicts = append(tb.Verdicts, 0)
	s.seg.Append(tb)
}
