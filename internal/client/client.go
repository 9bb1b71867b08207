// Package client is the Go SDK for armus-serve (internal/server): it
// streams verifier events to a remote verification session and surfaces
// the session's verdicts.
//
// The outbound side is a slab emitter, the mirror image of the server's
// coalesced egress (internal/server/conn.go) — one mechanism, both ends of
// the wire. Register, Arrive, Drop, Unblock and detection-mode Block take
// the client lock once, encode the event's wire frame straight into a
// pending slab and return; a writer goroutine swaps the slab for its spare
// under the same lock and puts it on the wire with one CRC update and one
// Write, so one syscall carries every event that accumulated since the last
// one. A caller about to wait for an answer (a gated Block, a Checkpoint)
// that finds no write in flight swaps the slab in that same critical
// section and writes it itself, instead of waking the writer for a write
// it would only wait on. Emitting only blocks once Config.Buffer events are
// pending — that is the backpressure contract, never unbounded memory.
//
// Block in an avoidance session round-trips the server's gate: it returns
// nil when the block was admitted and *GateError (carrying the refused
// cycle) when admitting it would have closed a deadlock — the remote
// analogue of core's avoidance mode returning *DeadlockError. Checkpoint
// round-trips a verdict query ("is the session deadlocked right now") and
// doubles as a write barrier: everything emitted before it has been
// applied when it returns.
//
// The client reconnects automatically: the server keeps a detached
// session alive for a lease, so after a transport failure the client
// redials with backoff, reattaches to the same session, and re-submits
// the in-flight gate and checkpoint round-trips (SetBlocked is a refresh,
// re-checking a verdict is idempotent — at-least-once is safe for both).
//
// Every reconnect additionally RESYNCS the session: the client tracks the
// last status it asserted for each of its tasks (the "owned" set) and,
// before anything else on the new connection, clears them all and
// re-asserts the live ones. The paper's Definition 4.1 is what makes this
// a complete recovery protocol — a blocked task's status is a pure
// function of the task, so the owned set IS this client's contribution to
// the session state, and replaying it reconstructs that contribution
// exactly. The server this lands on may be a different fleet member that
// just rehydrated the session from a store snapshot (cfg.Fleet below):
// the snapshot may lag reality, and the resync is what closes the gap —
// acked-but-unsnapshotted events are re-asserted, stale snapshot entries
// for this client's tasks are cleared. Zero verdict divergence across a
// server kill falls out: rehydrated snapshot + resync = the state the
// dead server had.
//
// With cfg.Fleet set, sessions route by rendezvous hashing
// (internal/fleet): the client connects to the session's owner and walks
// the rank order on dial failure, so a killed server's sessions fail over
// deterministically to the same survivor every client would pick.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/fleet"
	"armus/internal/server/proto"
	"armus/internal/trace"
)

// ErrClosed is returned once Close has been called.
var ErrClosed = errors.New("client: closed")

// Config configures a client. Addr, Session and Mode are required.
type Config struct {
	// Addr is the armus-serve TCP address.
	Addr string
	// Fleet, when non-empty, is the static shard map of a server fleet:
	// the session connects to its rendezvous owner (internal/fleet) and
	// fails over along the rank order when the owner is unreachable. Addr
	// is ignored. Every client and server of a fleet must be given the
	// same list.
	Fleet []string
	// Session names the session to attach to; every client naming the
	// same session shares one verifier state.
	Session string
	// Mode is the session verification mode: core.ModeAvoid (gated
	// blocks) or core.ModeDetect (reports pushed on deadlock).
	Mode core.Mode
	// Subscribe asks for deadlock reports; they arrive via OnReport.
	Subscribe bool
	// OnReport receives pushed deadlock reports (called from the reader
	// goroutine; keep it brief).
	OnReport func(Report)
	// OnDisconnect observes transport failures before the reconnect
	// attempts (optional, diagnostics only).
	OnDisconnect func(error)
	// Buffer is how many events may be pending — emitted but not yet taken
	// by the writer — before emitting blocks (default 1024).
	Buffer int
	// RedialAttempts bounds reconnect attempts per outage (default 8).
	RedialAttempts int
	// RedialBackoff is the first reconnect delay; it doubles per attempt,
	// capped at 2s (default 50ms).
	RedialBackoff time.Duration
	// DialTimeout bounds one dial. It is also how long Close lets its final
	// drain wait on a peer that has stopped reading before it gives up and
	// reports the truncation; a short dial timeout therefore shortens that
	// patience too (default 5s).
	DialTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Buffer <= 0 {
		c.Buffer = 1024
	}
	if c.RedialAttempts <= 0 {
		c.RedialAttempts = 8
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 50 * time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	return c
}

// Report is a deadlock report pushed by the server.
type Report struct {
	Tasks     []deps.TaskID
	Resources []deps.Resource
}

// GateError reports a refused avoidance block: the cycle that admitting
// Task's status would have closed.
type GateError struct {
	Task      deps.TaskID
	Tasks     []deps.TaskID
	Resources []deps.Resource
}

func (e *GateError) Error() string {
	return fmt.Sprintf("armus-serve refused block of task%d: deadlock cycle %v over %v",
		e.Task, e.Tasks, e.Resources)
}

// result is the answer to one round trip: yes is "admitted" for a gated
// Block and "deadlocked" for a Checkpoint; tasks and resources carry a
// refused block's cycle.
type result struct {
	yes       bool
	tasks     []deps.TaskID
	resources []deps.Resource
	err       error
}

// waiter is one in-flight round trip, a gated Block or a Checkpoint. The
// server answers every block event (avoidance sessions) and every verdict
// event on a connection in write order, and resync re-blocks plus raw Emits
// of recorded events draw answers with no waiter — so waiters pair with
// answers by ORDINAL: seq counts the events of the waiter's kind up to and
// including its own, within the pending slab while it rides there
// (sentGen 0) and on the current connection once the writer has taken the
// slab. Only a waiter WRITTEN on the reader's connection (sentGen equal to
// its generation) can be answered, and only by the response with its
// ordinal (the server's verdict sequence number, the position among gate
// responses): a slab-relative seq means nothing to a reader yet. Waiters are
// recycled through Client.free; everything but ch is guarded by Client.mu.
type waiter struct {
	ch      chan result // capacity 1: exactly one answer per flight
	check   bool        // Checkpoint (counts verdict events), else gated Block
	sentGen int         // connection generation last written on (0 = still pending)
	seq     uint64
}

// ownedStatus is one task's entry in the owned ledger. Entries and their
// buffers outlive the status: a re-block copies into existing capacity.
type ownedStatus struct {
	live bool // st is asserted (blocked); otherwise the task is cleared
	st   deps.Blocked
	// ord is the block ordinal (Client.blockOrd) of the task's last block
	// frame, the one st was framed in; 0 before the first.
	ord uint64
}

// link is one live connection.
type link struct {
	nc net.Conn
	tw *trace.Writer
	br *bufio.Reader
}

// Client is a connection to one armus-serve session.
type Client struct {
	cfg Config
	// addrs is the connection walk order: the session's fleet rank
	// (owner first, failover tail after), or just [cfg.Addr].
	addrs []string

	closeCh chan struct{}
	done    chan struct{}
	// wake nudges the writer when the pending slab goes non-empty, and
	// when a caller's write ends with more pending.
	wake chan struct{}

	mu sync.Mutex
	// The pending slab: wire frames (trace.AppendEventFrame, or a re-block
	// from appendBlockLocked) of the pendN events emitted since the writer
	// last swapped, pendVerdicts and pendBlocks of them verdict and block
	// events (what the server will answer), and the waiters riding among
	// them. It belongs to no connection: an un-swapped slab survives a
	// reconnect.
	pend                     []byte
	pendN                    int
	pendVerdicts, pendBlocks uint64
	pendWaiters              []*waiter
	// blockOrd numbers the block frames put on pending slabs, and slabStart
	// is the number the first of the current slab takes. A slab is
	// contiguous on whichever connection carries it, so a re-block whose
	// reference lies in its own slab decodes there (trace.Reblockable).
	blockOrd, slabStart uint64
	// space is where emitters wait out a full slab; the swap, Close and a
	// terminal error release them.
	space sync.Cond

	// The write side of the live connection, shared by the pump and the
	// callers that write their own round trip: link is that connection once
	// its resync head is out (nil between connections); writing says a
	// slab is on its way to the wire, and idle is signalled when it gets
	// there; spare is the slab the next swap puts in pend's place; and
	// sentVerdicts and sentBlocks count every verdict and block event
	// written on the link — checkpoints and raw Emits alike — mirroring the
	// server's per-connection answer ordinals, so a waiter knows which
	// answer is its own.
	link                     *link
	writing                  bool
	idle                     sync.Cond
	spare                    []byte
	sentVerdicts, sentBlocks uint64

	blocks map[deps.TaskID]*waiter
	// checks[checkHead:] is the FIFO of in-flight checkpoints.
	checks    []*waiter
	checkHead int
	free      []*waiter
	// owned is the last status this client asserted per task, live or
	// cleared. It is the client's whole contribution to the session state
	// (Definition 4.1), replayed at each reconnect to resync the server —
	// see run().
	owned   map[deps.TaskID]*ownedStatus
	nc      net.Conn // the live connection, for Close to bound its drain
	gen     int
	termErr error
	closed  bool
	// drainErr is why Close's drain was cut short, if it was. Written by
	// loop before it closes done, read by Close after.
	drainErr error

	reconnects atomic.Int64
	resumed    atomic.Bool
}

// Dial connects, performs the handshake and attaches to cfg.Session. The
// first connection is synchronous so configuration errors surface here;
// later transport failures reconnect in the background.
func Dial(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Mode != core.ModeAvoid && cfg.Mode != core.ModeDetect {
		return nil, fmt.Errorf("client: mode must be avoid or detect, got %v", cfg.Mode)
	}
	if !proto.ValidSession(cfg.Session) {
		return nil, fmt.Errorf("client: invalid session name %q", cfg.Session)
	}
	addrs := []string{cfg.Addr}
	if len(cfg.Fleet) > 0 {
		m, err := fleet.New(cfg.Fleet)
		if err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
		addrs = m.Rank(cfg.Session)
	} else if cfg.Addr == "" {
		return nil, fmt.Errorf("client: no Addr and no Fleet")
	}
	c := &Client{
		cfg:     cfg,
		addrs:   addrs,
		closeCh: make(chan struct{}),
		done:    make(chan struct{}),
		wake:    make(chan struct{}, 1),
		blocks:  make(map[deps.TaskID]*waiter),
		owned:   make(map[deps.TaskID]*ownedStatus),
	}
	c.space.L = &c.mu
	c.idle.L = &c.mu
	l, err := c.connect()
	if err != nil {
		return nil, err
	}
	go c.loop(l)
	return c, nil
}

// permanentError marks a connect failure that trying another fleet member
// cannot fix (mode conflict, refused attach): the walk stops and the
// caller sees the real error instead of a masked placement on the wrong
// server.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// connect walks the session's address rank — owner first, failover tail
// after — and returns the first completed handshake. Transport failures
// move on to the next member (that is fleet failover: the next server
// rehydrates the session from its store snapshot); protocol refusals stop
// the walk.
func (c *Client) connect() (*link, error) {
	var lastErr error
	for _, addr := range c.addrs {
		l, err := c.connectTo(addr)
		if err == nil {
			return l, nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return nil, pe.err
		}
		lastErr = err
	}
	return nil, lastErr
}

// connectTo dials one address and completes the handshake: write the
// trace header, read the hello.
func (c *Client) connectTo(addr string) (*link, error) {
	d := net.Dialer{Timeout: c.cfg.DialTimeout}
	nc, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := proto.Handshake{Session: c.cfg.Session, Subscribe: c.cfg.Subscribe}
	tw, err := trace.NewWriter(nc, h.Label(), uint8(c.cfg.Mode))
	if err == nil {
		err = tw.Flush()
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	br := bufio.NewReader(nc)
	var r proto.Response
	if c.cfg.DialTimeout > 0 {
		nc.SetReadDeadline(time.Now().Add(c.cfg.DialTimeout))
	}
	if err := proto.ReadResponse(br, &r); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	nc.SetReadDeadline(time.Time{})
	switch r.Kind {
	case proto.RespHello:
		if core.Mode(r.Mode) != c.cfg.Mode {
			nc.Close()
			return nil, &permanentError{fmt.Errorf("client: session %q runs in %v mode, asked for %v",
				c.cfg.Session, core.Mode(r.Mode), c.cfg.Mode)}
		}
		if r.Resumed {
			c.resumed.Store(true)
		}
	case proto.RespGoodbye:
		nc.Close()
		return nil, &permanentError{fmt.Errorf("client: attach refused (%s): %s", proto.ByeString(r.Code), r.Msg)}
	default:
		nc.Close()
		return nil, fmt.Errorf("client: unexpected %v during handshake", r.Kind)
	}
	return &link{nc: nc, tw: tw, br: br}, nil
}

// resyncError reports a refused resync re-block: a status this client was
// already granted no longer fits the session state found after failover.
// Terminal — see the handling in loop.
type resyncError struct{ task deps.TaskID }

func (e *resyncError) Error() string {
	return fmt.Sprintf("client: resync re-block of task%d refused: session state diverged across failover", e.task)
}

// goodbyeError is a server-initiated goodbye; apart from the
// slow-consumer code it ends the client instead of triggering reconnects.
type goodbyeError struct {
	code byte
	msg  string
}

func (e *goodbyeError) Error() string {
	return fmt.Sprintf("server closed connection (%s): %s", proto.ByeString(e.code), e.msg)
}

// loop owns the connection lifecycle: run until a transport failure,
// reconnect with backoff, resume. Exits on Close or a terminal error.
func (c *Client) loop(l *link) {
	defer close(c.done)
	for {
		err := c.run(l)
		l.nc.Close()
		if c.isClosed() {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// The only deadline run can trip over is the one Close put
				// on the drain: the peer stopped reading and what was still
				// pending is lost. Close reports it.
				c.drainErr = fmt.Errorf("client: close: drain gave up after %v: %w", c.cfg.DialTimeout, err)
			}
			c.finish(ErrClosed)
			return
		}
		var bye *goodbyeError
		if errors.As(err, &bye) && bye.code != proto.ByeSlow {
			// Drain / refusal: the server asked us to stop; reconnecting
			// would be rude (and for drain, futile). A slow-consumer drop
			// is OUR fault and transient — reconnect for that one.
			c.finish(err)
			return
		}
		var rse *resyncError
		if errors.As(err, &rse) {
			// A resync re-block was refused: the rehydrated session state
			// plus this client's own statuses closed a cycle. For a
			// single-client session that cannot happen (everything
			// re-asserted was admitted before, and resync state is a subset
			// of that admitted, acyclic set); with multiple clients a stale
			// peer snapshot can provoke it. Either way the session state no
			// longer matches what this client was promised — loud and
			// terminal beats silent divergence.
			c.finish(err)
			return
		}
		if c.cfg.OnDisconnect != nil {
			c.cfg.OnDisconnect(err)
		}
		backoff := c.cfg.RedialBackoff
		var nl *link
		for attempt := 0; attempt < c.cfg.RedialAttempts; attempt++ {
			select {
			case <-c.closeCh:
				c.finish(ErrClosed)
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			var cerr error
			if nl, cerr = c.connect(); cerr == nil {
				break
			}
			err = cerr
		}
		if nl == nil {
			c.finish(fmt.Errorf("client: reconnect to %v failed: %w", c.addrs, err))
			return
		}
		c.reconnects.Add(1)
		l = nl
	}
}

// run drives one live connection: resync the session state, re-submit the
// round trips in flight on the previous connection, start the reader, then
// pump the pending slab.
func (c *Client) run(l *link) error {
	var head []byte
	c.mu.Lock()
	c.gen++
	gen := c.gen
	c.nc = l.nc
	c.sentVerdicts, c.sentBlocks = 0, 0
	c.boundDrainLocked()
	// The resync set (reconnects only): clear every task this client ever
	// asserted, then re-assert the live ones — skipping tasks with an
	// in-flight gated Block, whose resend below supersedes any refresh.
	// Clearing FIRST matters: the server may have just rehydrated a store
	// snapshot that lags reality, and mixing its stale statuses with fresh
	// re-blocks could fabricate a cycle that never existed. After the
	// clears, the re-asserted set is a subset of statuses the gate already
	// admitted together, so (for this client's tasks) resync cannot be
	// refused.
	if gen > 1 && len(c.owned) > 0 {
		tasks := make([]deps.TaskID, 0, len(c.owned))
		for t := range c.owned {
			if _, inflight := c.blocks[t]; !inflight {
				tasks = append(tasks, t)
			}
		}
		sort.Slice(tasks, func(i, j int) bool { return tasks[i] < tasks[j] })
		for _, t := range tasks {
			head, _ = trace.AppendEventFrame(head, trace.Event{Kind: trace.KindUnblock, Task: t})
		}
		for _, t := range tasks {
			if o := c.owned[t]; o.live {
				head = appendBlock(head, &o.st)
				c.sentBlocks++
			}
		}
	}
	// Resync blocks are written before anything else, so in an avoidance
	// session their unsolicited gate answers are exactly the first
	// sentBlocks-so-far ordinals — the reader treats a refusal among them
	// as the terminal resync failure.
	resyncGates := c.sentBlocks
	if c.cfg.Mode != core.ModeAvoid {
		resyncGates = 0
	}
	// Resends: the round trips a previous connection wrote and never saw
	// answered. (Those still riding in the pending slab have sentGen 0 and
	// go out with it.) A gated block's event is rebuilt from the ledger —
	// its status has been there since the Block call, and resync skipped it.
	for t, w := range c.blocks {
		if w.sentGen > 0 {
			head = appendBlock(head, &c.owned[t].st)
			c.sentBlocks++
			w.sentGen, w.seq = gen, c.sentBlocks
		}
	}
	for _, w := range c.checks[c.checkHead:] { // FIFO order preserved
		if w.sentGen > 0 {
			head, _ = trace.AppendEventFrame(head, checkpointEvent)
			c.sentVerdicts++
			w.sentGen, w.seq = gen, c.sentVerdicts
		}
	}
	c.mu.Unlock()
	if err := l.tw.WriteFrames(head); err != nil {
		return err
	}
	c.mu.Lock()
	c.link = l
	c.mu.Unlock()

	readerErr := make(chan error, 1)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		c.readLoop(l.br, readerErr, gen, resyncGates)
	}()
	// Retire the link and join the reader before returning: a caller's
	// write or a reader that outlived its connection could otherwise race
	// the next connection's re-submission of in-flight round trips and
	// mismatch the pairing. Closing the socket first ends such a write.
	defer func() {
		l.nc.Close()
		c.mu.Lock()
		c.link = nil
		for c.writing {
			c.idle.Wait()
		}
		c.mu.Unlock()
		<-readerDone
	}()

	// The pump: while no caller's write is in flight, take the pending slab
	// (takeLocked) and write it whole. A slab whose write fails is dropped;
	// its waiters are stamped, so the next connection resends them, and the
	// ledger re-asserts what it held of the session state.
	for {
		c.mu.Lock()
		for c.writing && c.closed {
			// A caller's write is in flight and Close has bounded it.
			c.idle.Wait()
		}
		var slab []byte
		if !c.writing && len(c.pend) > 0 {
			slab = c.takeLocked()
		}
		closed := c.closed
		c.mu.Unlock()
		if slab != nil {
			err := l.tw.WriteFrames(slab)
			c.mu.Lock()
			c.wroteLocked(slab)
			c.mu.Unlock()
			if err != nil {
				return err
			}
			select {
			case err := <-readerErr:
				return err
			default:
			}
			continue
		}
		if closed {
			// Graceful end: everything emitted is on the wire; close the
			// trace stream properly (end sentinel + CRC) so the server
			// reads a clean EOF and the connection doubles as a complete
			// trace.
			return l.tw.Close()
		}
		select {
		case <-c.wake:
		case err := <-readerErr:
			return err
		case <-c.closeCh:
		}
	}
}

// takeLocked swaps the pending slab for the spare for a write on the live
// link: it stamps the few waiters riding in it with the link's generation
// and ordinals in this same critical section — before the bytes can reach
// the wire — and marks the write in flight. The two slabs alternate, so
// steady state allocates nothing.
func (c *Client) takeLocked() []byte {
	slab := c.pend
	for _, w := range c.pendWaiters {
		w.sentGen = c.gen
		if w.check {
			w.seq += c.sentVerdicts
		} else {
			w.seq += c.sentBlocks
		}
	}
	c.sentVerdicts += c.pendVerdicts
	c.sentBlocks += c.pendBlocks
	clear(c.pendWaiters)
	c.pendWaiters = c.pendWaiters[:0]
	c.pend, c.spare = c.spare[:0], nil
	c.pendN, c.pendVerdicts, c.pendBlocks = 0, 0, 0
	c.slabStart = c.blockOrd + 1
	c.writing = true
	c.space.Broadcast()
	return slab
}

// wroteLocked ends the write of a slab takeLocked handed out: the slab is
// the spare again, and whoever waits for the write side is released.
func (c *Client) wroteLocked(slab []byte) {
	c.spare = slab[:0]
	c.writing = false
	c.idle.Broadcast()
}

// writeOwn writes the slab a caller about to wait took in submit. A failed
// write closes the link: the reader fails, run returns, and the reconnect
// resends the round trips the slab carried, which takeLocked stamped. What
// was emitted meanwhile goes to the pump.
func (c *Client) writeOwn(l *link, slab []byte) {
	if err := l.tw.WriteFrames(slab); err != nil {
		l.nc.Close()
	}
	c.mu.Lock()
	c.wroteLocked(slab)
	more := c.pendN > 0
	c.mu.Unlock()
	if more {
		c.nudge()
	}
}

// nudge wakes the pump.
func (c *Client) nudge() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// checkpointEvent is the one event a Checkpoint sends.
var checkpointEvent = trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported}

// appendBlock frames the block event of a ledger status.
func appendBlock(buf []byte, st *deps.Blocked) []byte {
	// A status in the ledger was framed once already: it cannot fail now.
	buf, _ = trace.AppendEventFrame(buf, trace.Event{Kind: trace.KindBlock, Task: st.Task, Status: *st})
	return buf
}

// boundDrainLocked gives a closing client's connection a write deadline:
// Close drains what is pending, but a peer that has stopped reading must
// not hold it forever.
func (c *Client) boundDrainLocked() {
	if c.closed && c.nc != nil {
		c.nc.SetWriteDeadline(time.Now().Add(c.cfg.DialTimeout))
	}
}

// readLoop dispatches the responses of connection generation gen until it
// fails. resyncGates is the count of resync re-blocks written at the head of this
// connection (avoidance mode): their unsolicited gate answers arrive as
// exactly the first resyncGates RespGate ordinals, and a refusal among
// them is the terminal resync failure.
func (c *Client) readLoop(br *bufio.Reader, errch chan<- error, gen int, resyncGates uint64) {
	var r proto.Response
	var recvGates uint64
	for {
		if err := proto.ReadResponse(br, &r); err != nil {
			errch <- err
			return
		}
		switch r.Kind {
		case proto.RespGate:
			// The server answers every block event on the connection in
			// write order; resync re-blocks and raw Emits of recorded block
			// events draw answers with no waiter. Pair by ordinal: only the
			// response whose position matches the block ordinal the waiter
			// was written with ON THIS CONNECTION is its answer — a waiter
			// still in the pending slab holds a slab-relative seq that an
			// earlier answer must not match (mirror of the verdict matching
			// below).
			recvGates++
			c.mu.Lock()
			w := c.blocks[r.Task]
			if w == nil || w.sentGen != gen || w.seq != recvGates {
				w = nil
			} else {
				delete(c.blocks, r.Task)
				if !r.Allowed {
					// The refusal clears ownership under the same critical
					// section that retires the waiter, so a racing reconnect
					// can never resync-assert a status the gate rolled back.
					c.owned[r.Task].live = false
				}
			}
			c.mu.Unlock()
			if w != nil {
				w.ch <- result{
					yes:       r.Allowed,
					tasks:     append([]deps.TaskID(nil), r.Tasks...),
					resources: append([]deps.Resource(nil), r.Resources...),
				}
			} else if !r.Allowed && recvGates <= resyncGates {
				errch <- &resyncError{task: r.Task}
				return
			}
		case proto.RespVerdict:
			// Match by the server's per-connection sequence number: the
			// server answers EVERY ingested verdict event (a raw Emit of a
			// recorded trace included), so FIFO alone would let an
			// unsolicited answer steal a checkpoint's slot and skew every
			// later pairing. Only the response whose ordinal equals the
			// ordinal the head waiter was written with on this connection is
			// its answer; a head still in the pending slab is nobody's yet.
			c.mu.Lock()
			var w *waiter
			if h := c.checkHead; h < len(c.checks) && c.checks[h].sentGen == gen && c.checks[h].seq == r.Seq {
				w = c.checks[h]
				// Nil the slot: an answered waiter must not stay reachable
				// from the queue's backing array.
				c.checks[c.checkHead] = nil
				if c.checkHead++; c.checkHead == len(c.checks) {
					c.checks, c.checkHead = c.checks[:0], 0
				}
			}
			c.mu.Unlock()
			if w != nil {
				w.ch <- result{yes: r.Deadlocked}
			}
		case proto.RespReport:
			if c.cfg.OnReport != nil {
				c.cfg.OnReport(Report{
					Tasks:     append([]deps.TaskID(nil), r.Tasks...),
					Resources: append([]deps.Resource(nil), r.Resources...),
				})
			}
		case proto.RespGoodbye:
			errch <- &goodbyeError{code: r.Code, msg: r.Msg}
			return
		default:
			// Unknown/unexpected kinds are ignored for forward compat.
		}
	}
}

// finish fails every in-flight round trip, releases every emitter waiting
// for space and records the terminal error.
func (c *Client) finish(err error) {
	c.mu.Lock()
	if c.termErr == nil {
		c.termErr = err
	}
	term := c.termErr
	failed := append([]*waiter(nil), c.checks[c.checkHead:]...)
	for _, w := range c.blocks {
		failed = append(failed, w)
	}
	clear(c.blocks)
	c.checks, c.checkHead = nil, 0
	c.space.Broadcast()
	c.mu.Unlock()
	for _, w := range failed {
		w.ch <- result{err: term}
	}
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// submit is the whole outbound path of one event, in ONE critical section:
// wait for space (backpressure), check the terminal error, encode the
// event's wire frame straight onto the pending slab, fold it into the owned
// ledger and, for a round trip, enrol its waiter — so the slab's order is
// the ledger's order is the waiters' order, with no second lock to
// serialise them. wait enrols a waiter for the answer to e, a verdict event
// (Checkpoint) or a block event (gated Block); when no write is in flight
// on the live link, the same critical section takes the slab and the caller
// writes it (writeOwn). Otherwise the writer is nudged, and only when the
// slab goes non-empty.
func (c *Client) submit(e *trace.Event, wait bool) (*waiter, error) {
	c.mu.Lock()
	for c.pendN >= c.cfg.Buffer && c.termErr == nil && !c.closed {
		c.space.Wait()
	}
	err := c.termErr
	if err == nil && c.closed {
		err = ErrClosed
	}
	if err == nil && wait && e.Kind == trace.KindBlock && c.blocks[e.Task] != nil {
		err = fmt.Errorf("client: concurrent Block for task %d", e.Task)
	}
	var o *ownedStatus
	if err == nil {
		if e.Kind == trace.KindBlock {
			o, err = c.appendBlockLocked(e)
		} else {
			c.pend, err = trace.AppendEventFrame(c.pend, *e)
		}
	}
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.pendN++
	// Ownership is recorded BEFORE the writer can take the event: once it
	// is on the wire, a reconnect's resync must already account for it. A
	// gated block recorded here and later refused is cleared by readLoop;
	// until the gate answers, its waiter sits in c.blocks and resync skips
	// the task, so the provisional entry is never asserted.
	switch e.Kind {
	case trace.KindBlock:
		c.pendBlocks++
		o.live = true
		o.ord = c.blockOrd
		o.st.Task = e.Status.Task
		o.st.WaitsFor = append(o.st.WaitsFor[:0], e.Status.WaitsFor...)
		o.st.Regs = append(o.st.Regs[:0], e.Status.Regs...)
	case trace.KindUnblock:
		c.ownedLocked(e.Task).live = false
	case trace.KindVerdict:
		c.pendVerdicts++
	}
	var w *waiter
	if wait {
		if n := len(c.free); n > 0 {
			w, c.free = c.free[n-1], c.free[:n-1]
		} else {
			w = &waiter{ch: make(chan result, 1)}
		}
		w.sentGen = 0
		if w.check = e.Kind == trace.KindVerdict; w.check {
			w.seq = c.pendVerdicts
			c.checks = append(c.checks, w)
		} else {
			w.seq = c.pendBlocks
			c.blocks[e.Task] = w
		}
		c.pendWaiters = append(c.pendWaiters, w)
	}
	var slab []byte
	l, first := c.link, c.pendN == 1
	if wait && l != nil && !c.writing {
		slab = c.takeLocked()
	}
	c.mu.Unlock()
	if slab != nil {
		c.writeOwn(l, slab)
	} else if first {
		c.nudge()
	}
	return w, nil
}

// appendBlockLocked frames the block event e onto the pending slab and
// returns its task's ledger entry, created on first sight. e goes as a
// re-block of the task's last block frame when trace.Reblockable allows it
// — that frame lies in this slab — and the status keeps the frame's
// phasers in their order; otherwise in full.
func (c *Client) appendBlockLocked(e *trace.Event) (*ownedStatus, error) {
	o, next, framed := c.owned[e.Task], c.blockOrd+1, false
	if o != nil && trace.Reblockable(o.ord, c.slabStart, next) {
		c.pend, framed = trace.AppendReblockFrame(c.pend, &o.st, &e.Status)
	}
	if !framed {
		var err error
		if c.pend, err = trace.AppendEventFrame(c.pend, *e); err != nil {
			return nil, err
		}
	}
	c.blockOrd = next
	if e.Task != e.Status.Task {
		// A raw event naming another task than its status: a decoder files
		// the frame under the status's task, whose entry here it does not
		// update, so nothing later in this slab may lean on that entry.
		c.slabStart = next + 1
	}
	if o == nil {
		o = c.ownedLocked(e.Task)
	}
	return o, nil
}

// ownedLocked returns t's ledger entry, creating it on first sight.
func (c *Client) ownedLocked(t deps.TaskID) *ownedStatus {
	o := c.owned[t]
	if o == nil {
		o = &ownedStatus{}
		c.owned[t] = o
	}
	return o
}

// await collects a round trip's answer and recycles its waiter.
func (c *Client) await(w *waiter) result {
	res := <-w.ch
	c.mu.Lock()
	if len(c.free) < maxFreeWaiters {
		c.free = append(c.free, w)
	}
	c.mu.Unlock()
	return res
}

// maxFreeWaiters bounds the waiter free list: enough for every caller of a
// busy client to find one, small enough to forget a burst.
const maxFreeWaiters = 64

// Emit submits a raw trace event (fire and forget). Most callers use the
// typed helpers below; the loadgen uses Emit to stream recorded traces.
func (c *Client) Emit(e trace.Event) error {
	_, err := c.submit(&e, false)
	return err
}

// Register emits a task-joins-phaser event.
func (c *Client) Register(t deps.TaskID, q deps.PhaserID, phase int64, mode uint8) error {
	return c.Emit(trace.Event{Kind: trace.KindRegister, Task: t, Phaser: q, Phase: phase, Mode: mode})
}

// Arrive emits a task-signals-phaser event; phase is the new local phase.
func (c *Client) Arrive(t deps.TaskID, q deps.PhaserID, phase int64) error {
	return c.Emit(trace.Event{Kind: trace.KindArrive, Task: t, Phaser: q, Phase: phase})
}

// Drop emits a membership-revoked event.
func (c *Client) Drop(t deps.TaskID, q deps.PhaserID) error {
	return c.Emit(trace.Event{Kind: trace.KindDrop, Task: t, Phaser: q})
}

// Unblock emits a task-resumed event.
func (c *Client) Unblock(t deps.TaskID) error {
	return c.Emit(trace.Event{Kind: trace.KindUnblock, Task: t})
}

// Block submits a blocked status. In a detection session it is fire and
// forget. In an avoidance session it round-trips the server's gate: nil
// means the block was admitted (the status is in the session state);
// *GateError means admitting it would close the returned deadlock cycle
// and the status was rolled back — the caller must not block.
func (c *Client) Block(b deps.Blocked) error {
	// The event borrows b's slices: submit encodes them onto the slab and
	// copies them into the ledger before it returns, and keeps neither.
	ev := trace.Event{Kind: trace.KindBlock, Task: b.Task, Status: b}
	w, err := c.submit(&ev, c.cfg.Mode == core.ModeAvoid)
	if err != nil || w == nil {
		return err
	}
	res := c.await(w)
	if res.err != nil {
		return res.err
	}
	if !res.yes {
		return &GateError{Task: b.Task, Tasks: res.tasks, Resources: res.resources}
	}
	return nil
}

// Checkpoint round-trips a verdict query: it reports whether the session
// state is deadlocked after everything this client emitted so far has
// been applied. It therefore doubles as a write barrier.
func (c *Client) Checkpoint() (bool, error) {
	w, err := c.submit(&checkpointEvent, true)
	if err != nil {
		return false, err
	}
	res := c.await(w)
	return res.yes, res.err
}

// Reconnects reports how many times the client re-established its
// connection.
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// Resumed reports whether any attach found the session already existing
// on the server.
func (c *Client) Resumed() bool { return c.resumed.Load() }

// Close drains the pending slab, closes the trace stream cleanly (end
// sentinel + CRC) and releases the client. The drain is given DialTimeout:
// against a peer that has stopped reading for that long Close gives up,
// drops what was still pending and returns an error wrapping
// os.ErrDeadlineExceeded. In-flight Block/Checkpoint calls and emitters
// waiting for space fail with ErrClosed. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.boundDrainLocked()
		c.space.Broadcast()
		close(c.closeCh)
	}
	c.mu.Unlock()
	<-c.done
	return c.drainErr
}
