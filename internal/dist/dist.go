// Package dist implements one-phase, fault-tolerant distributed deadlock
// detection (§5.2 of the paper). Each participating process runs a Site: a
// local verifier in observe mode plus a background loop that, every period,
//
//  1. publishes the site's blocked statuses to the shared store (package
//     store, the Redis stand-in), and
//  2. fetches every other site's published snapshot, merges it with the
//     live local state, and runs cycle analysis on the global view.
//
// The algorithm is one-phase because a blocked status is a pure function of
// the blocked task's own registration vector (§2.2): sites never coordinate
// or vote — each independently reaches the same verdict from the merged
// view. It is fault-tolerant because snapshots are self-contained
// overwrites: a site that crashes and restarts simply republishes, the
// reconnecting store.Client rides out store restarts, and a corrupt
// snapshot is dropped (counted in SiteStats) without wedging anyone else's
// check. A *stale* snapshot — a site that died without withdrawing its key
// — is deliberately kept: its tasks were genuinely blocked when it was
// published and, with the site gone, can never advance, so any cycle it
// participates in is a real, permanent deadlock (and an internally acyclic
// stale snapshot can never fabricate one, because per-site snapshots are
// consistent).
//
// The round is incremental end to end. A site publishes a full base
// snapshot into the "base" field of its store hash, then per round only a
// cumulative delta against that base into the "delta" field (overwritten
// in place — no chains of deltas), re-basing after K deltas or whenever the
// delta would outgrow the full set; when the local state did not change, it
// publishes nothing at all. What the next link is and under which sequence
// number is the Chain's decision (chain.go; a server session stores whole
// snapshots instead); the site queues the store commands, counts once
// the store has answered, and has the chain re-base when it has not — a
// link whose acknowledgement was lost may have been fetched by a peer, so
// its number is never used again. Publish and fetch share one pipelined
// store round trip: the round's writes plus a single MGETP that returns
// every site's fields — including the site's own, which doubles as a
// liveness echo (a restarted, empty store is detected from the same reply
// and healed by an immediate full republish, preserving the crash-recovery
// story above). Each peer's fields go through that peer's Reader (chain.go
// again), which caches what it decoded by seq: an unchanged peer costs two
// header peeks, a changed one a delta apply, a corrupt delta falls back to
// that peer's base snapshot and a corrupt base to its last view. The merged
// view is one persistent index-searched engine (package engine) holding the
// local statuses and every peer's: a round applies to it only what each
// changed source removed or upserted, and searches for a cycle from the
// upserted tasks alone — a new cycle must pass through a changed status.
// When nothing changed anywhere — no peer seq advanced, local state version
// identical — the previous verdict is returned. A warm round allocates
// nothing: store replies are parsed in the pipeline's own storage and
// payloads decoded into per-peer buffers.
//
// Task and phaser IDs are made globally unique by offsetting each site's
// verifier with core.WithIDBase(siteID << SiteIDShift), so merged snapshots
// never alias and a report names the owning site of every task.
package dist

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"armus/internal/clock"
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/engine"
	"armus/internal/store"
	"armus/internal/trace"
	"armus/internal/wire"
)

// DefaultPeriod is the publish/check period of the paper's distributed
// evaluation (§6.2: sites verify every 200 ms).
const DefaultPeriod = 200 * time.Millisecond

// SiteIDShift is the bit position of the site ID inside task and phaser
// IDs: site s mints IDs in [s<<SiteIDShift, (s+1)<<SiteIDShift), giving
// every site 2^32 local IDs with no cross-site collisions.
const SiteIDShift = 32

// keyPrefix namespaces the per-site snapshot keys in the shared store; each
// site overwrites only its own key and scans the prefix for everyone's.
const keyPrefix = "armus:site:"

// defaultFullEvery is how many delta publishes may ride one base snapshot
// before the site re-bases (publishes a fresh full snapshot). It bounds
// the cumulative delta's growth and the blast radius of a lost write.
const defaultFullEvery = 16

var (
	firstSeqMu   sync.Mutex
	lastFirstSeq uint64 // where the site created last in this process numbered from
)

// firstSeq returns where a new site numbers its links from: above every
// link an earlier incarnation of its id published, or a peer that slept
// through the withdrawal would take the new links for the ones it cached.
// That is the clock in nanoseconds, floored 2^32 (more links than one
// incarnation publishes) above the site created last in this process, so a
// frozen clock still numbers incarnations apart.
func firstSeq(c clock.Clock) uint64 {
	firstSeqMu.Lock()
	defer firstSeqMu.Unlock()
	lastFirstSeq = max(uint64(max(c.Now().UnixNano(), 0)), lastFirstSeq+1<<32)
	return lastFirstSeq
}

// noVersion is a deps.State version no state reaches: a site that has not
// analysed anything yet holds it for the local state's, so its first
// analysis is never taken for a repeat of an earlier one.
const noVersion = ^uint64(0)

// ErrSiteClosed is returned by PublishOnce and CheckOnce after Close: a
// closed site must not re-publish the snapshot Close withdrew.
var ErrSiteClosed = errors.New("dist: site is closed")

// SiteOf recovers the publishing site of a distributed task or phaser ID
// (0 for IDs minted by a non-distributed verifier).
func SiteOf(id int64) int { return int(id >> SiteIDShift) }

// Option configures NewSite.
type Option func(*Site)

// WithPeriod sets the publish/check period (default DefaultPeriod).
func WithPeriod(d time.Duration) Option { return func(s *Site) { s.period = d } }

// WithClock injects the clock driving the publish/check loop (default the
// real time.Ticker clock). Tests pass a *clock.Fake and step rounds
// deterministically instead of sleeping through periods.
func WithClock(c clock.Clock) Option { return func(s *Site) { s.clock = c } }

// WithFullSnapshotEvery sets how many delta publishes may ride one base
// snapshot before the site re-publishes a full base (default 16). Lower
// values trade publish bandwidth for faster convergence after a lost
// write; 1 effectively disables deltas.
func WithFullSnapshotEvery(k int) Option {
	return func(s *Site) {
		if k > 0 {
			s.fullEvery = k
		}
	}
}

// WithVerifierTrace taps the site's local verifier with a trace recorder
// (core.WithTraceRecorder): every local transition of this site — block,
// unblock, register, arrive, drop — is recorded for later replay. The
// site's global-check verdicts are not trace events (they are derived
// state, recomputed by the replayer's observe+dist pipeline); the trace is
// the site's local contribution to the cluster.
func WithVerifierTrace(r *trace.Recorder) Option {
	return func(s *Site) { s.rec = r }
}

// WithVerifierMode overrides the mode of the site's local verifier. The
// default is core.ModeObserve: blocked statuses are recorded for publishing
// but no local checker runs (the global loop is the checker). ModeOff gives
// the unchecked baseline of Figure 7. Avoidance is unavailable distributed,
// exactly as in the paper (§5.2).
func WithVerifierMode(m core.Mode) Option { return func(s *Site) { s.mode = m } }

// WithOnDeadlock installs the handler for deadlocks found by the site's
// global check. The default logs the report. The handler runs on the
// site's loop goroutine; a given cycle is reported once until it changes.
func WithOnDeadlock(f func(*core.DeadlockError)) Option {
	return func(s *Site) { s.onDeadlock = f }
}

// source is one contributor to the merged view: a peer site, or the local
// state. view is what it claims now and applied the deep copy of what the
// merged engine holds of it, both sorted by task; the analysis applies the
// difference. A peer's view is its Reader's, refreshed by every fetch; the
// local source has no store fields and its view is a snapshot buffer.
type source struct {
	key     string
	rd      Reader
	view    []deps.Blocked
	applied []deps.Blocked
	moved   bool // view may differ from applied
	seen    bool // per-fetch mark; unseen peers were withdrawn
}

// Site is one participant of a distributed program: it owns the process's
// local verifier and the publish/check loop of the one-phase algorithm.
type Site struct {
	id     int
	skey   string
	period time.Duration
	mode   core.Mode
	clock  clock.Clock

	v          *core.Verifier
	client     *store.Client
	onDeadlock func(*core.DeadlockError)
	rec        *trace.Recorder

	stats siteStats

	// pubMu serialises publishing against Close so a PublishOnce racing
	// Close can never recreate the key Close just withdrew (the store
	// client transparently redials, so closing it is not enough). It also
	// owns the site's chain — which link is next, under which seq, against
	// which retained base — and the payload buffer every link is encoded
	// into.
	pubMu        sync.Mutex
	pubPipe      *store.Pipeline
	chain        *Chain
	fullEvery    int // for NewChain only
	pubPayload   []byte
	pubErrStreak int

	// chkMu owns the merged view — one persistent engine holding the
	// statuses of every source — and the check round's reusable buffers,
	// so the periodic global analysis re-decodes no unchanged peer and
	// re-applies no unchanged status.
	chkMu    sync.Mutex
	chkPipe  *store.Pipeline
	merged   *engine.Engine
	local    source    // view and applied only; it has no store fields
	localVer uint64    // deps.State version of local.view; noVersion before the first analysis
	peers    []*source // sorted by key, as MGETP replies are
	dropBuf  []deps.TaskID
	putBuf   []deps.Blocked
	lastRep  *core.DeadlockError // verdict of the merged view as applied

	mu      sync.Mutex
	started bool
	closed  bool
	stop    chan struct{}
	done    chan struct{}
}

// NewSite creates site id connected to the store at addr. IDs minted by
// the site's verifier are offset by id << SiteIDShift so they are globally
// unique; ids must therefore be distinct across the cluster (and small
// enough to leave the local ID space intact, i.e. 0 <= id < 2^31). The
// loop is not running until Start.
func NewSite(id int, addr string, opts ...Option) *Site {
	s := &Site{
		id:        id,
		skey:      keyPrefix + strconv.Itoa(id),
		period:    DefaultPeriod,
		mode:      core.ModeObserve,
		clock:     clock.Real{},
		client:    store.Dial(addr),
		merged:    engine.New(true),
		localVer:  noVersion,
		fullEvery: defaultFullEvery,
	}
	for _, o := range opts {
		o(s)
	}
	s.chain = NewChain(id, s.fullEvery, firstSeq(s.clock))
	s.pubPipe = s.client.Pipeline()
	s.chkPipe = s.client.Pipeline()
	if s.onDeadlock == nil {
		s.onDeadlock = func(e *core.DeadlockError) { log.Printf("armus: site %d: %v", id, e) }
	}
	copts := []core.Option{
		core.WithMode(s.mode),
		core.WithIDBase(int64(id) << SiteIDShift),
	}
	if s.rec != nil {
		if s.rec.Label() == "" {
			s.rec.SetLabel(fmt.Sprintf("site %d", id))
		}
		copts = append(copts, core.WithTraceRecorder(s.rec))
	}
	s.v = core.New(copts...)
	return s
}

// ID returns the site's cluster-unique identifier.
func (s *Site) ID() int { return s.id }

// Verifier returns the site's local verifier; the application creates its
// tasks and phasers through it.
func (s *Site) Verifier() *core.Verifier { return s.v }

// StoreStats returns the traffic counters of the site's store client (one
// client serves both halves of the round).
func (s *Site) StoreStats() store.ClientStats { return s.client.Stats() }

// Start launches the publish/check loop. Idempotent; a closed site does
// not restart.
func (s *Site) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop()
}

// Close stops the loop, withdraws the site's snapshot from the store
// (best-effort), and closes the client and the local verifier. Idempotent.
func (s *Site) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	started := s.started
	s.mu.Unlock()
	if started {
		close(s.stop)
		<-s.done
	}
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if _, err := s.client.Del(s.key()); err != nil {
		// The snapshot could not be withdrawn (store down?). Survivors will
		// keep merging it as a stale snapshot — harmless while acyclic, but
		// the operator should know it was left behind.
		s.stats.withdrawFailures.Add(1)
		log.Printf("armus: site %d: could not withdraw snapshot on close: %v", s.id, err)
	}
	s.client.Close()
	s.v.Close()
}

func (s *Site) key() string { return s.skey }

func (s *Site) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// loop is the site's verification round: one pipelined publish+check every
// period. Errors are counted, never fatal — the next round retries, which
// together with the reconnecting client is the whole §5.2 fault-tolerance
// story. Publish failures are surfaced separately from check failures
// (RoundOnce logs the former; the loop logs the latter), each once per
// error streak so a long outage does not spam the log every period.
func (s *Site) loop() {
	defer close(s.done)
	ticker := s.clock.NewTicker(s.period)
	defer ticker.Stop()
	var lastReported []byte
	var fp fpScratch
	chkErrStreak := 0
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C():
		}
		rep, err := s.RoundOnce()
		if err != nil {
			chkErrStreak++
			if chkErrStreak == 1 {
				log.Printf("armus: site %d: check failed (will retry next round): %v", s.id, err)
			}
			continue
		}
		if chkErrStreak > 0 {
			log.Printf("armus: site %d: check recovered after %d failed rounds", s.id, chkErrStreak)
			chkErrStreak = 0
		}
		if rep == nil {
			lastReported = lastReported[:0]
			continue
		}
		b := appendFingerprint(&fp, rep.Cycle)
		if !bytes.Equal(b, lastReported) {
			lastReported = append(lastReported[:0], b...)
			s.stats.deadlocks.Add(1)
			s.onDeadlock(rep)
		}
	}
}

// fpScratch holds the reusable buffers of appendFingerprint.
type fpScratch struct {
	ids []int64
	buf []byte
}

// appendFingerprint identifies a cycle by its sorted task set, so the loop
// reports a persisting deadlock once rather than once per period. The
// scratch buffers are reused: a cycle that persists across rounds costs no
// allocation per round. The returned slice aliases sc.buf and is valid
// until the next call.
func appendFingerprint(sc *fpScratch, c *deps.Cycle) []byte {
	sc.ids = sc.ids[:0]
	for _, t := range c.Tasks {
		sc.ids = append(sc.ids, int64(t))
	}
	slices.Sort(sc.ids)
	sc.buf = sc.buf[:0]
	for _, id := range sc.ids {
		sc.buf = strconv.AppendInt(sc.buf, id, 10)
		sc.buf = append(sc.buf, ',')
	}
	return sc.buf
}

// queuePublishLocked queues the next link of the site's chain, which
// decides what it is: nothing when the state is unchanged, a cumulative
// delta against the published base normally, a fresh base on the first
// publish, on the re-base cadence, when the delta would outgrow the full set
// and after Rebase. The store commands are the site's. Caller holds pubMu.
func (s *Site) queuePublishLocked(p *store.Pipeline) (field string) {
	field, s.pubPayload = s.chain.Next(s.v.State(), s.pubPayload[:0])
	switch field {
	case "base":
		// DEL first clears the stale delta field, so a reader can never
		// pair the new base with an old delta.
		p.Del(s.key())
		p.HSet(s.key(), "base", s.pubPayload)
	case "delta":
		p.HSet(s.key(), "delta", s.pubPayload)
	}
	return field
}

// commitPublishLocked counts a publish round by what the store answered to
// the commands queued for field. A link that was not acknowledged may or
// may not be in the store, and a peer may have fetched it: its seq is spent,
// and the next link is a base numbered above it. Caller holds pubMu.
func (s *Site) commitPublishLocked(field string, err error) error {
	if err != nil {
		s.stats.publishErrors.Add(1)
		if field != "" {
			s.chain.Rebase()
		}
		return err
	}
	s.stats.publishes.Add(1)
	switch field {
	case "base":
		s.stats.fullSnapshots.Add(1)
	case "delta":
		s.stats.deltaSnapshots.Add(1)
	default:
		s.stats.publishSkips.Add(1)
	}
	return nil
}

// replyErr returns the first error among the replies to queued writes.
func replyErr(reps []store.Reply) error {
	for _, r := range reps {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// copySnapshot deep-copies src into dst, reusing dst's entry capacity. The
// published base must not alias the snapshot buffer: the next SnapshotInto
// overwrites that buffer in place.
func copySnapshot(dst, src []deps.Blocked) []deps.Blocked {
	dst = wire.Emptied(dst, len(src))[:len(src)]
	for i := range src {
		dst[i].Task = src[i].Task
		dst[i].WaitsFor = append(dst[i].WaitsFor[:0], src[i].WaitsFor...)
		dst[i].Regs = append(dst[i].Regs[:0], src[i].Regs...)
	}
	return dst
}

// republishFullLocked force-publishes a fresh base snapshot, healing a
// store that lost the site's fields (restart, eviction). Caller holds
// pubMu.
func (s *Site) republishFullLocked() error {
	s.chain.Rebase()
	s.stats.storeRepairs.Add(1)
	field := s.queuePublishLocked(s.pubPipe)
	reps, err := s.pubPipe.Exec()
	if err == nil {
		err = replyErr(reps)
	}
	return s.commitPublishLocked(field, err)
}

// PublishOnce publishes the local blocked statuses: a delta when the state
// changed since the last publish, nothing (beyond a liveness probe) when
// it did not, a full base snapshot on the re-base cadence. The store's
// reply doubles as a health check — if the hash does not hold the fields
// the site believes it published (a restarted store starts empty), a full
// snapshot is republished immediately. One round of the publish half of
// the loop; exported for tests and for applications that drive their own
// schedule. Snapshots are deep copies (deps.State copies statuses on both
// write and read), so a publish can never observe torn data from a
// concurrently re-blocking task; all buffers are reused across rounds.
func (s *Site) PublishOnce() error {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if s.isClosed() {
		return ErrSiteClosed
	}
	field := s.queuePublishLocked(s.pubPipe)
	s.pubPipe.HLen(s.key())
	reps, err := s.pubPipe.Exec()
	if err == nil {
		err = replyErr(reps[:len(reps)-1])
	}
	if err := s.commitPublishLocked(field, err); err != nil {
		return err
	}
	wantFields := 2 // base + live delta
	if base, seq := s.chain.Seqs(); seq == base {
		wantFields = 1
	}
	if reps[len(reps)-1].N != wantFields {
		return s.republishFullLocked()
	}
	return nil
}

// notePublishOutcomeLocked logs the loop's publish outcomes: the first
// failure of a streak and the eventual recovery, so publish errors are
// visible in site logs distinctly from check errors without one line per
// failed period. Caller holds pubMu.
func (s *Site) notePublishOutcomeLocked(err error) {
	if err != nil {
		s.pubErrStreak++
		if s.pubErrStreak == 1 {
			log.Printf("armus: site %d: publish failed (peers keep the last snapshot): %v", s.id, err)
		}
		return
	}
	if s.pubErrStreak > 0 {
		log.Printf("armus: site %d: publish recovered after %d failed rounds", s.id, s.pubErrStreak)
		s.pubErrStreak = 0
	}
}

// peerLocked finds the peer published under key, looking first at position
// at — where it is when the reply lists the keys in order, as the store
// does — and reports its position, or where it belongs. Caller holds chkMu.
func (s *Site) peerLocked(key []byte, at int) (*source, int) {
	if at < len(s.peers) && s.peers[at].key == string(key) {
		return s.peers[at], at
	}
	at, ok := slices.BinarySearchFunc(s.peers, key, func(p *source, key []byte) int {
		return strings.Compare(p.key, string(key))
	})
	if !ok {
		return nil, at
	}
	return s.peers[at], at
}

// ingestLocked refreshes the peers' views from one MGETP reply, whose
// storage it does not keep: it groups the entries by key and hands each
// peer's fields to that peer's Reader, which decodes what is new into its
// own buffers and pairs base and delta. Corrupt payloads never wedge the
// round: a delta that fell back to the peer's base and a base that was
// dropped (the peer's previous good view kept, a peer not yet known left
// out) are counted. Peers absent from the reply were withdrawn: their view
// is emptied, and the analysis drops them once their statuses are out of
// the merged view. When echo is set the caller holds pubMu too and the
// chain's last link was acknowledged: the site's own fields are held against
// that link's seqs, and ownIntact reports whether the store still holds what
// the site published (false after a store restart). Caller holds chkMu.
func (s *Site) ingestLocked(entries []store.Entry, echo bool) (viewsChanged, ownIntact bool) {
	ownIntact = true
	own := s.key()
	ownSeen := false
	for _, pv := range s.peers {
		pv.seen = false
	}
	next := 0 // position in s.peers after the previous key's
	for i := 0; i < len(entries); {
		key := entries[i].Key
		var basePayload, deltaPayload []byte
		for ; i < len(entries) && bytes.Equal(entries[i].Key, key); i++ {
			switch string(entries[i].Field) {
			case "base":
				basePayload = entries[i].Value
			case "delta":
				deltaPayload = entries[i].Value
			}
		}
		if string(key) == own {
			if echo {
				ownSeen = true
				wantBase, wantSeq := s.chain.Seqs()
				okBase := false
				if basePayload != nil {
					_, bs, err := peekSnapshotSeq(basePayload)
					okBase = err == nil && bs == wantBase
				}
				okDelta := wantSeq == wantBase // no delta expected
				if !okDelta && deltaPayload != nil {
					_, df, dt, err := peekDeltaSeqs(deltaPayload)
					okDelta = err == nil && df == wantBase && dt == wantSeq
				}
				if !okBase || !okDelta {
					ownIntact = false
				}
			}
			continue
		}
		pv, at := s.peerLocked(key, next)
		if pv != nil {
			// Whatever its fields turn out to hold, the peer is there:
			// where they are no good, its last good view is kept.
			pv.seen, next = true, at+1
		}
		if basePayload == nil {
			// A delta with no base: the publisher is mid-repair or the
			// store lost the base field.
			if pv == nil {
				s.stats.snapshotsDropped.Add(1)
			}
			continue
		}
		var fresh Reader
		rd := &fresh
		if pv != nil {
			rd = &pv.rd
		}
		view, moved, out, _ := rd.Read(basePayload, deltaPayload)
		switch out {
		case BaseDropped:
			s.stats.snapshotsDropped.Add(1)
		case DeltaFellBack:
			s.stats.deltaFallbacks.Add(1)
		}
		if !moved {
			continue // seen before, or a base that is no good: nothing to apply
		}
		if pv == nil {
			pv = &source{key: string(key), seen: true, rd: fresh}
			s.peers = slices.Insert(s.peers, at, pv)
			next = at + 1
		}
		pv.view, pv.moved = view, true
		viewsChanged = true
	}
	for _, pv := range s.peers {
		if !pv.seen {
			pv.view, pv.moved = nil, true
			viewsChanged = true
		}
	}
	if echo && !ownSeen {
		ownIntact = false // the store does not hold our key at all
	}
	return viewsChanged, ownIntact
}

// applyLocked brings the merged engine from what it holds of src to view,
// what src claims now: the removals at once, the upserts queued on putBuf for
// when every source's removals are in. Caller holds chkMu.
func (s *Site) applyLocked(src *source, view []deps.Blocked) {
	if !src.moved {
		return
	}
	s.dropBuf, s.putBuf = diffSnapshots(src.applied, view, s.dropBuf[:0], s.putBuf)
	for _, t := range s.dropBuf {
		s.merged.Unblock(t)
	}
	src.applied = copySnapshot(src.applied, view)
	src.moved = false
}

// analyzeLocked brings the merged view up to date with the sources that
// changed — the peers ingestLocked refreshed, the local state if its
// version advanced — and returns its verdict. Only the difference is
// applied, and the engine searches from the upserted tasks only (or from
// every task after a deadlock verdict: engine.Engine.Check has the rule);
// when nothing changed since the previous analysis the cached verdict is
// returned. With
// pubSnapshot the caller also holds pubMu, and the snapshot the chain took
// this round is borrowed instead of taking a second one — for this analysis
// only: the chain writes through that buffer at its next link, under pubMu
// alone, so nothing that outlives the call may alias it. Caller holds chkMu.
func (s *Site) analyzeLocked(viewsChanged, pubSnapshot bool) *core.DeadlockError {
	s.stats.checks.Add(1)
	// Version is read before the snapshot: a mutation racing this round
	// may make the verdict conservative (recomputed next round), never
	// stale.
	var local []deps.Blocked
	if ver := s.v.State().Version(); ver != s.localVer {
		lentVer := noVersion
		if pubSnapshot {
			local, lentVer = s.chain.Snapshot()
		}
		if lentVer != ver {
			s.local.view = s.v.State().SnapshotInto(s.local.view)
			local = s.local.view
		}
		s.local.moved, s.localVer = true, ver
	} else if !viewsChanged {
		s.stats.analysisSkips.Add(1)
		return s.lastRep
	}
	// All removals of all sources go in before any upsert: a task that left
	// one source and entered another since the last analysis would
	// otherwise lose, to the first one's removal, the status the second
	// one just put in.
	s.putBuf = s.putBuf[:0]
	s.applyLocked(&s.local, local)
	for _, pv := range s.peers {
		s.applyLocked(pv, pv.view)
	}
	s.peers = slices.DeleteFunc(s.peers, func(pv *source) bool { return !pv.seen })
	s.merged.Restore(s.putBuf...)
	s.lastRep = nil
	if cyc := s.merged.Check(); cyc != nil {
		s.lastRep = s.newReport(cyc)
	}
	return s.lastRep
}

// CheckOnce fetches every site's published fields in one MGETP round trip,
// merges them (through the seq-gated peer cache) with the live local
// state, and runs cycle analysis on the global view. It returns the
// deadlock report, or (nil, nil) when the global state is deadlock free.
// Undecodable snapshots are dropped (counted in SiteStats) rather than
// failing the check.
func (s *Site) CheckOnce() (*core.DeadlockError, error) {
	if s.isClosed() {
		return nil, ErrSiteClosed
	}
	s.chkMu.Lock()
	defer s.chkMu.Unlock()
	s.chkPipe.MGetPrefix(keyPrefix)
	reps, err := s.chkPipe.Exec()
	if err != nil {
		s.stats.checkErrors.Add(1)
		return nil, err
	}
	entries, err := reps[0].Entries()
	if err != nil {
		s.stats.checkErrors.Add(1)
		return nil, err
	}
	viewsChanged, _ := s.ingestLocked(entries, false)
	return s.analyzeLocked(viewsChanged, false), nil
}

// AnalyzeCached runs cycle analysis on the live local state merged with
// the peer views from the most recent fetch, without touching the store.
// It is exact only while no peer has published since that fetch — callers
// that drive the cluster schedule themselves (the trace replayer) know
// this; the background loop never uses it.
func (s *Site) AnalyzeCached() (*core.DeadlockError, error) {
	if s.isClosed() {
		return nil, ErrSiteClosed
	}
	s.chkMu.Lock()
	defer s.chkMu.Unlock()
	return s.analyzeLocked(false, false), nil
}

// RoundOnce runs one full verification round — the publish and fetch
// halves share a single pipelined store round trip (this round's writes,
// then one MGETP covering every site) — and analyses the merged view. The
// site's own fields in the MGETP reply double as a liveness echo: when the
// store no longer holds what was published (a restart emptied it), a full
// snapshot is republished immediately, in the same round. Publish errors
// are counted and logged per streak but do not fail the round (the check
// half still runs on the local view); the returned error is a check
// failure.
func (s *Site) RoundOnce() (*core.DeadlockError, error) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if s.isClosed() {
		return nil, ErrSiteClosed
	}
	s.chkMu.Lock()
	defer s.chkMu.Unlock()
	field := s.queuePublishLocked(s.chkPipe)
	s.chkPipe.MGetPrefix(keyPrefix)
	reps, err := s.chkPipe.Exec()
	if err != nil {
		s.notePublishOutcomeLocked(s.commitPublishLocked(field, err))
		s.stats.checkErrors.Add(1)
		return nil, err
	}
	pubErr := s.commitPublishLocked(field, replyErr(reps[:len(reps)-1]))
	s.notePublishOutcomeLocked(pubErr)
	entries, err := reps[len(reps)-1].Entries()
	if err != nil {
		s.stats.checkErrors.Add(1)
		return nil, err
	}
	viewsChanged, ownIntact := s.ingestLocked(entries, pubErr == nil)
	if !ownIntact {
		// The store lost our fields (restart): heal before peers' next
		// fetch. A failure here is counted; the next round retries.
		_ = s.republishFullLocked()
	}
	return s.analyzeLocked(viewsChanged, true), nil
}

// newReport wraps a cycle as a *core.DeadlockError, naming local tasks
// from the verifier and remote tasks by their owning site.
func (s *Site) newReport(cyc *deps.Cycle) *core.DeadlockError {
	names := make(map[deps.TaskID]string, len(cyc.Tasks))
	for _, t := range cyc.Tasks {
		if n := s.v.TaskName(t); n != "" {
			names[t] = n
		} else {
			names[t] = fmt.Sprintf("site%d.task%d", SiteOf(int64(t)), int64(t)&(1<<SiteIDShift-1))
		}
	}
	return &core.DeadlockError{Cycle: cyc, TaskNames: names}
}

// siteStats holds the site's atomic counters.
type siteStats struct {
	publishes        atomic.Int64
	publishErrors    atomic.Int64
	publishSkips     atomic.Int64
	fullSnapshots    atomic.Int64
	deltaSnapshots   atomic.Int64
	storeRepairs     atomic.Int64
	checks           atomic.Int64
	checkErrors      atomic.Int64
	analysisSkips    atomic.Int64
	snapshotsDropped atomic.Int64
	deltaFallbacks   atomic.Int64
	deadlocks        atomic.Int64
	withdrawFailures atomic.Int64
}

// SiteStats is a point-in-time copy of a site's counters.
type SiteStats struct {
	Publishes        int64 // publish rounds completed against a live store
	PublishErrors    int64 // publish rounds lost to store errors
	PublishSkips     int64 // publish rounds with nothing to write (state unchanged)
	FullSnapshots    int64 // full base snapshots published
	DeltaSnapshots   int64 // cumulative deltas published
	StoreRepairs     int64 // full republishes after the store lost our fields
	Checks           int64 // check rounds completed
	CheckErrors      int64 // check rounds lost to store errors
	AnalysisSkips    int64 // check rounds that reused the previous verdict
	SnapshotsDropped int64 // undecodable remote base snapshots skipped
	DeltaFallbacks   int64 // corrupt/mismatched remote deltas replaced by their base
	Deadlocks        int64 // distinct deadlock reports delivered
	WithdrawFailures int64 // Close could not remove the snapshot key
}

// Stats returns a snapshot of the site's counters.
func (s *Site) Stats() SiteStats {
	return SiteStats{
		Publishes:        s.stats.publishes.Load(),
		PublishErrors:    s.stats.publishErrors.Load(),
		PublishSkips:     s.stats.publishSkips.Load(),
		FullSnapshots:    s.stats.fullSnapshots.Load(),
		DeltaSnapshots:   s.stats.deltaSnapshots.Load(),
		StoreRepairs:     s.stats.storeRepairs.Load(),
		Checks:           s.stats.checks.Load(),
		CheckErrors:      s.stats.checkErrors.Load(),
		AnalysisSkips:    s.stats.analysisSkips.Load(),
		SnapshotsDropped: s.stats.snapshotsDropped.Load(),
		DeltaFallbacks:   s.stats.deltaFallbacks.Load(),
		Deadlocks:        s.stats.deadlocks.Load(),
		WithdrawFailures: s.stats.withdrawFailures.Load(),
	}
}
