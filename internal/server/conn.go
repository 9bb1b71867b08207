package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"armus/internal/core"
	"armus/internal/obs"
	"armus/internal/segment"
	"armus/internal/server/proto"
	"armus/internal/trace"
)

// maxBatch is the most events a batch holds: the blocks, unblocks and
// checkpoints a session applies. A register, arrive or drop frame gives its
// slot back once teed, and a batch spans at most maxBatchFrames frames.
const (
	maxBatch       = 256
	maxBatchFrames = 4 * maxBatch
)

// maxBacklog bounds a connection's undelivered responses (the coalesce
// buffer, counted in responses): a connection exceeding it is disconnected
// as a slow consumer. It is far above what a peer that reads its answers
// keeps in flight, and a peer that does not read trips it at about 40 KB.
const maxBacklog = 4096

// batch is one decoded chunk of a connection's event stream — the unit a
// read loop applies to its session. A connection owns one batch and decodes
// into it again once the last is applied, so the steady-state ingest path
// allocates nothing.
type batch struct {
	c      *conn
	events []trace.Event // backing array, len == maxBatch
	n      int           // events[:n] are valid
	frames int           // frames decoded for it, structural ones included
	// decNs (internal/obs Nanotime) is taken by the read loop right after
	// the batch is decoded; the queue-wait stage starts there.
	decNs int64
}

// conn is one accepted client connection: a read loop that decodes,
// applies and tries the write of its own answers, and a writer goroutine
// flushing what that try leaves and what other goroutines encode into the
// coalesce buffer.
type conn struct {
	srv *Server
	nc  net.Conn
	// sess is set by attach and read by the writer, both under wmu: a
	// Shutdown goodbye makes the writer flush mid-handshake.
	sess *session

	// Egress: responses are encoded under wmu into wbuf (bounded by
	// response count, wcount) and the writer is nudged through wsig; the
	// writer swaps the buffer out and writes it with a single Write call,
	// so one syscall carries every response that accumulated since the
	// last flush.
	wmu        sync.Mutex
	wbuf       []byte
	wcount     int
	wsig       chan struct{}
	done       chan struct{} // closed by the handler when the read side ends
	writerDone chan struct{}
	// wfirstNs stamps (under wmu) when the oldest response of the current
	// coalesce buffer was encoded; the writer turns it into the flush-stage
	// latency — how long a verdict sat buffered before its syscall finished.
	wfirstNs int64
	// writing is set (under wmu) while the writer is between its swap and
	// the end of its Write: the read loop's inline write stays out then.
	writing bool

	// raw is the socket's descriptor for the read loop's inline write (nil
	// on a transport without one, such as net.Pipe). rawWrite is the
	// callback that write passes, bound once so the attempt allocates
	// nothing; it fills wn and werr, under wmu like the buffer it writes.
	raw      syscall.RawConn
	rawWrite func(fd uintptr) bool
	wn       int
	werr     error

	// Tee coalescing (read-loop local): pending archive frames for the
	// segment store, flushed by size/age after a decoded batch and at
	// read-loop end (tee.go). teeStart is the block ordinal the pending
	// batch's first block frame takes.
	teePending *segment.Batch
	teeSince   time.Time
	teeStart   uint64

	subscribe bool
	slow      atomic.Bool
	// checkSeq numbers this connection's checkpoints; it is touched only
	// under its session's lock.
	checkSeq uint64
}

func (s *Server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	s.m.ConnsTotal.Add(1)
	s.m.ConnsOpen.Add(1)
	defer s.m.ConnsOpen.Add(-1)

	c := &conn{
		srv:        s,
		nc:         nc,
		wsig:       make(chan struct{}, 1),
		done:       make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	if sc, ok := nc.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			c.raw, c.rawWrite = raw, c.writeOnce
		}
	}
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()

	go c.writeLoop()
	defer func() {
		// Read side done, and every batch it decoded applied (their
		// responses are in the coalesce buffer): archive the tail of the
		// tee's pending frames, let the writer flush everything, then drop
		// the socket and deregister.
		c.teeFlush()
		close(c.done)
		<-c.writerDone
		nc.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()

	// The handshake is the trace header; a peer that cannot produce one
	// within 10 s (real time: a socket deadline) is not a client.
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	tr, err := trace.NewReader(nc)
	if err != nil {
		c.refuse(proto.ByeMalformed, err)
		return
	}
	h, err := proto.ParseLabel(tr.Label())
	if err != nil {
		c.refuse(proto.ByeSession, err)
		return
	}
	mode := core.Mode(tr.Mode())
	if mode != core.ModeAvoid && mode != core.ModeDetect {
		c.refuse(proto.ByeSession,
			fmt.Errorf("session mode must be avoid or detect, got %v", mode))
		return
	}
	nc.SetReadDeadline(time.Time{})
	c.subscribe = h.Subscribe

	sess, resumed, err := s.attach(h.Session, mode, c)
	if err != nil {
		c.refuse(proto.ByeSession, err)
		return
	}
	clean := false
	defer func() { sess.detach(c, clean) }()
	c.send(proto.Response{Kind: proto.RespHello, Mode: uint8(sess.mode), Resumed: resumed})

	// The ingest loop: decode a batch and apply it. While the session lock
	// is busy the loop does not read its socket, so the kernel stops the
	// sender: that is the backpressure.
	b := &batch{c: c, events: make([]trace.Event, maxBatch)}
	for {
		err := c.ingest(tr, sess, b)
		if err != nil {
			switch {
			case errors.Is(err, io.EOF):
				// Clean trace end: sentinel and CRC verified.
				clean = true
			case isAbruptClose(err):
				// Peer vanished mid-stream (crash, reset, our Close):
				// the session lives on until its lease expires.
			default:
				s.m.MalformedConns.Add(1)
				// Every batch before the fault is applied, so the goodbye
				// follows their answers.
				c.send(proto.Response{Kind: proto.RespGoodbye, Code: proto.ByeMalformed, Msg: err.Error()})
				s.cfg.Logf("armus-serve: session %q: malformed stream: %v", h.Session, err)
			}
			return
		}
	}
}

// ingest is the read loop's turn: decode, apply, send the answers, count
// the frames decoded. The batch's answers are encoded without waking the
// writer; once it is applied, a read loop with nothing more buffered to
// decode tries their write itself, and otherwise (or for what the socket
// does not take) the writer is woken.
func (c *conn) ingest(tr *trace.Reader, ss *session, b *batch) error {
	err := c.decode(tr, ss, b)
	if b.n > 0 {
		b.decNs = obs.Nanotime()
		ss.apply(b)
		if c.raw == nil || tr.Buffered() > 0 || !c.writeInline(ss) {
			c.wake()
		}
	}
	c.srv.m.Events.Add(int64(b.frames))
	return err
}

// decode fills b from tr with the zero-alloc NextInto path: one frame,
// waiting for it if it must, then greedily whatever further frames are
// already buffered. With the archive on, every frame is teed as it is
// decoded — not after the batch, when a later read may have slid the
// reader's window from under it — and the pending archive batch is handed
// over once, after the last, if it is due. A frame no session applies
// leaves its slot free.
func (c *conn) decode(tr *trace.Reader, ss *session, b *batch) error {
	var err error
	n, frames, tee := 0, 0, c.srv.seg != nil
	for ; n < len(b.events) && frames < maxBatchFrames && (frames == 0 || tr.Buffered() > 0); frames++ {
		e := &b.events[n]
		if err = tr.NextInto(e); err != nil {
			break
		}
		if tee {
			c.teeFrame(ss, tr, e)
		}
		if k := e.Kind; k == trace.KindBlock || k == trace.KindUnblock || k == trace.KindVerdict {
			n++
		}
	}
	b.n, b.frames = n, frames
	c.teeFlushIfDue(tr)
	return err
}

// refuse counts and reports a connection that never attached.
func (c *conn) refuse(code byte, err error) {
	if isAbruptClose(err) || errors.Is(err, io.EOF) {
		return // a probe or vanished peer, not a protocol violation
	}
	if code == proto.ByeMalformed {
		c.srv.m.MalformedConns.Add(1)
	}
	c.send(proto.Response{Kind: proto.RespGoodbye, Code: code, Msg: err.Error()})
	c.srv.cfg.Logf("armus-serve: refused connection (%s): %v", proto.ByeString(code), err)
}

// send encodes a response into the connection's coalesce buffer and
// nudges the writer; it never blocks on the socket.
func (c *conn) send(r proto.Response) bool {
	if !c.enqueue(r) {
		return false
	}
	c.wake()
	return true
}

// wake nudges the writer.
func (c *conn) wake() {
	select {
	case c.wsig <- struct{}{}:
	default:
	}
}

// enqueue encodes a response into the coalesce buffer, leaving the writer
// asleep: the read loop's answers to its own batch go this way, and the
// read loop sends them once the batch is applied (ingest). The buffer is
// bounded by RESPONSE COUNT: a peer holding more than maxBacklog
// undelivered responses is not draining its read side while we still have
// verdicts to deliver — the slow-consumer policy is to disconnect it
// (bounded memory beats an unbounded backlog). Returns false if the
// response was dropped (teardown, overflow, encode failure).
func (c *conn) enqueue(r proto.Response) bool {
	if c.slow.Load() {
		return false
	}
	select {
	case <-c.done:
		// The writer has done its final flush; buffering more would leak.
		return false
	default:
	}
	c.wmu.Lock()
	b, err := proto.AppendResponse(c.wbuf, &r)
	if err != nil {
		c.wmu.Unlock()
		return false
	}
	c.wbuf = b
	if c.wcount == 0 {
		c.wfirstNs = obs.Nanotime()
	}
	c.wcount++
	over := c.wcount > maxBacklog
	c.wmu.Unlock()
	if over {
		if c.slow.CompareAndSwap(false, true) {
			c.srv.m.SlowDisconnects.Add(1)
			c.srv.cfg.Logf("armus-serve: disconnecting slow consumer (%d responses backlogged)",
				maxBacklog)
			c.nc.Close() // read loop notices and tears the connection down
		}
		return false
	}
	return true
}

// writeInline is the read loop's one non-blocking try at writing the
// coalesce buffer: under wmu, unless the writer is mid-Write, through the
// socket's RawConn, whose callback writes once and never waits for the
// socket to drain. It reports whether the buffer left whole; what the
// kernel did not take stays buffered, its responses still counted toward
// the backlog, for the writer. The read loop thus never waits on its peer.
func (c *conn) writeInline(ss *session) bool {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.writing {
		return false
	}
	if len(c.wbuf) == 0 {
		return true
	}
	c.wn, c.werr = 0, nil
	if err := c.raw.Write(c.rawWrite); err != nil || c.werr != nil || c.wn <= 0 {
		return false
	}
	if c.wn < len(c.wbuf) {
		c.wbuf = c.wbuf[:copy(c.wbuf, c.wbuf[c.wn:])]
		return false
	}
	if c.wfirstNs != 0 {
		ns := obs.Nanotime() - c.wfirstNs
		c.srv.m.StageFlush.Observe(ns)
		ss.ob.Flush.Observe(ns)
	}
	c.wbuf, c.wcount, c.wfirstNs = c.wbuf[:0], 0, 0
	return true
}

// writeOnce is writeInline's RawConn callback: one write(2) on the
// non-blocking socket, done whatever it returns.
func (c *conn) writeOnce(fd uintptr) bool {
	c.wn, c.werr = syscall.Write(int(fd), c.wbuf)
	return true
}

// queueDepth reports the current egress backlog in responses (metrics
// gauge).
func (c *conn) queueDepth() int {
	c.wmu.Lock()
	d := c.wcount
	c.wmu.Unlock()
	return d
}

// writeLoop is the connection's blocking socket writer: woken through
// wsig, it swaps the coalesce buffer for its spare and writes the whole
// thing with one Write call — under load dozens of gate verdicts leave per
// syscall. It carries what the read loop's inline try cannot: pushes and
// goodbyes from other goroutines, the tail a full socket did not take, and
// every write on a transport without a descriptor. Write errors close the
// socket (the read loop notices); the loop keeps swapping so send never
// sticks. The two buffers alternate, so steady state allocates nothing.
func (c *conn) writeLoop() {
	defer close(c.writerDone)
	var spare []byte
	broken := false
	flush := func() {
		c.wmu.Lock()
		buf := c.wbuf
		first := c.wfirstNs
		ss := c.sess
		c.wbuf = spare[:0]
		c.wcount = 0
		c.wfirstNs = 0
		write := len(buf) > 0 && !broken
		c.writing = write
		c.wmu.Unlock()
		if write {
			if _, err := c.nc.Write(buf); err != nil {
				broken = true
				c.nc.Close()
			}
			// Flush stage: oldest buffered response to syscall completion.
			// One observation per flush — the coalescing is the point.
			if first != 0 {
				ns := obs.Nanotime() - first
				c.srv.m.StageFlush.Observe(ns)
				if ss != nil {
					ss.ob.Flush.Observe(ns)
				}
			}
			c.wmu.Lock()
			c.writing = false
			c.wmu.Unlock()
		}
		spare = buf[:0]
	}
	for {
		select {
		case <-c.wsig:
			flush()
		case <-c.done:
			flush()
			return
		}
	}
}
