package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"armus/internal/core"
	"armus/internal/obs"
	"armus/internal/segment"
	"armus/internal/server/proto"
	"armus/internal/trace"
)

// maxBatch is the most events one read loop decodes into a batch before
// applying it.
const maxBatch = 256

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
	// decNs (internal/obs Nanotime) is taken by the read loop right after
	// the batch is decoded; the queue-wait stage starts there.
	decNs int64
}

// conn is one accepted client connection: a read loop that decodes and
// applies, and a writer goroutine flushing the coalesce buffer responses
// are encoded into.
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
		err := c.decode(tr, sess, b)
		if b.n > 0 {
			b.decNs = obs.Nanotime()
			sess.apply(b)
		}
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

// decode fills b from tr with the zero-alloc NextInto path: one event,
// waiting for it if it must, then greedily whatever further frames are
// already buffered. With the archive on, every frame is teed as it is
// decoded — not after the batch, when a later read may have slid the
// reader's window from under it — and the pending archive batch is handed
// over once, after the last, if it is due.
func (c *conn) decode(tr *trace.Reader, ss *session, b *batch) error {
	var err error
	for b.n = 0; b.n < len(b.events) && (b.n == 0 || tr.Buffered() > 0); b.n++ {
		e := &b.events[b.n]
		if err = tr.NextInto(e); err != nil {
			break
		}
		if c.srv.seg != nil {
			c.teeFrame(ss, tr, e)
		}
	}
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
// nudges the writer; it never blocks on the socket. The buffer is bounded
// by RESPONSE COUNT: a peer holding more than maxBacklog undelivered
// responses is not draining its read side while we still have verdicts to
// deliver — the slow-consumer policy is to disconnect it (bounded memory
// beats an unbounded backlog). Returns false if the response was dropped
// (teardown, overflow, encode failure).
func (c *conn) send(r proto.Response) bool {
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
	select {
	case c.wsig <- struct{}{}:
	default:
	}
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

// writeLoop is the connection's single socket writer: woken through wsig,
// it swaps the coalesce buffer for its spare and writes the whole thing
// with one Write call — under load dozens of gate verdicts leave per
// syscall. Write errors close the socket (the read loop notices); the
// loop keeps swapping so send never sticks. The two buffers alternate, so
// steady state allocates nothing.
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
		c.wmu.Unlock()
		if len(buf) > 0 && !broken {
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
