package server

import (
	"time"

	"armus/internal/deps"
	"armus/internal/trace"
)

// tee.go is the archive half of ingestion. When Config.SegmentDir is
// set, every event frame a read loop accepts is appended to the durable
// trace archive (internal/segment) before its batch is applied — a block
// frame framed against the pending archive batch, so that every archive
// block decodes on its own, anything else as it arrived — and the server's own verdict transitions (gate rejections,
// deadlock reports) are appended as verdict annotations. Both paths end in
// one non-blocking channel send; all file I/O happens on the archive's own
// goroutine, so a slow or full disk can drop archive batches (counted)
// but can never stall verification.

// Tee coalescing bounds: a connection's pending archive frames are handed
// to the store once they reach teeFlushBytes, or once the oldest is
// teeFlushAge old — looked at after each decoded batch and when the
// connection closes, not on a timer: the tail of a connection that falls
// silent is archived with its next batch or its close, whichever comes
// first. Gated avoidance traffic decodes one event per batch (each block
// round-trips), so without coalescing every gate would cost a store
// batch; with it, hot connections amortize the channel, pool and
// writer-dispatch overhead across hundreds of events.
const (
	teeFlushBytes = 8 << 10
	teeFlushAge   = 100 * time.Millisecond
)

// teeFrame appends the event frame tr has just decoded into e to the
// connection's pending archive batch, framed by trace.Reader.AppendArchived:
// a block frame goes as a re-block wherever its reference lies in the
// batch, and in full where it does not, so the batch decodes on its own and
// is as dense as a re-block stream whoever sent it; every other frame is
// copied as the decoder accepted it. It runs on the connection read loop,
// before the batch is applied, so the archive order is the order this connection's
// events entered the session — one valid linearization of the merged trace
// (blocked status is a pure function of the task, Def. 4.1, so per-task
// order is all that matters and each task arrives on one connection).
func (c *conn) teeFrame(ss *session, tr *trace.Reader, e *trace.Event) {
	tb := c.teePending
	if tb == nil {
		tb = c.srv.seg.NewBatch()
		tb.Session = ss.name
		tb.Mode = uint8(ss.mode)
		c.teePending = tb
		c.teeSince = time.Now()
	}
	frames, err := tr.AppendArchived(tb.Frames, c.teeStart)
	if err != nil {
		return // a status too large for any frame is left out
	}
	if e.Kind == trace.KindVerdict {
		tb.Verdicts = append(tb.Verdicts, tb.Events)
	}
	tb.Frames = frames
	tb.Events++
}

// teeFlushIfDue hands over the pending archive batch, if there is one and
// it is full or old. The next batch starts with the next frame tr decodes.
func (c *conn) teeFlushIfDue(tr *trace.Reader) {
	if tb := c.teePending; tb != nil && (len(tb.Frames) >= teeFlushBytes || time.Since(c.teeSince) >= teeFlushAge) {
		c.teeFlush()
		c.teeStart = tr.Blocks() + 1
	}
}

// teeFlush hands the connection's pending archive batch to the store
// (non-blocking; a full queue drops it, counted). Called by size/age
// after a decoded batch and unconditionally when the read loop ends, so a
// closing connection archives its tail.
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
// in session-lock order, so replay must count these annotations rather
// than re-assert them (replay only asserts verdict events that name
// tasks). Client checkpoints travel in the ingress stream itself and
// are archived by teeFrame.
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
