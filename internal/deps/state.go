package deps

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// minSweep is the least number of Clear calls between two sweeps of idle
// task entries; above it the interval is the number of blocked tasks, so a
// sweep (linear in the entries) costs O(1) per Clear and at most two
// intervals' worth of idle entries exist at any time.
const minSweep = 256

// State is the mutable, concurrency-safe collection of blocked statuses —
// the resource-dependency state D = (I, W) of Definition 4.1 — together
// with a per-phaser index of registrations and awaited events that
// SetBlocked/Clear keep up to date and CycleThrough and FindCycle read
// directly instead of re-deriving it from a snapshot.
//
// One Mutex guards everything: every caller already serialises its writers
// (the avoidance gate under the verifier's check lock, a server session's
// lock, a site's driver), so finer locking bought nothing.
// Nor does a reader/writer lock: its write lock costs twice a Mutex's atomics.
//
// A task's entry, and the places its registrations occupy in the index,
// outlive Clear: a task that blocks again with the same phaser set — the
// steady barrier round — only has its phases overwritten in place. Entries
// that stay idle are reclaimed (and their storage reused) by a periodic sweep.
//
// Blocked statuses are copied on write: the slices inside a Blocked passed
// to SetBlocked are copied into state-owned storage, and Snapshot copies
// them back out, so callers on either side can never observe torn data
// (the distributed publisher in package dist relies on this).
type State struct {
	version atomic.Uint64

	mu      sync.Mutex
	count   int // blocked tasks
	tasks   map[TaskID]*taskEntry
	phasers map[PhaserID]*phaserNode // exactly the nodes with a registration or a waiter
	entries []*taskEntry             // entries[e.slot] == e; blocked and idle ones
	// gen counts sweeps; an idle entry last blocked in an earlier
	// generation is reclaimed by the next sweep.
	gen        uint32
	untilSweep int          // Clear calls left before the next sweep
	free       []*taskEntry // reclaimed entries, at most minSweep, for the next new task
}

// taskEntry is the blocked status of one task and its footprint in the
// index. While idle (cleared) it holds no awaited event, but its
// registrations stay in place, skipped by every reader.
type taskEntry struct {
	b       Blocked // state-owned copy
	slot    int32   // index in State.entries and in a CycleScratch
	gen     uint32  // State.gen when last blocked
	blocked bool
	regs    []regSlot     // regs[i] is where b.Regs[i] sits in the index
	waits   []*phaserNode // waits[i] is the node of b.WaitsFor[i]; what an earlier status left is a hint
}

type regSlot struct {
	node *phaserNode
	pos  int32 // node.regs[pos] is this registration
}

// phaserNode is the index of one phaser: who is registered at which local
// phase (the impedes relation) and which of its phases are awaited.
type phaserNode struct {
	id    PhaserID
	dead  bool // removed from State.phasers; an idle entry may still point here
	regs  []regRef
	waits []waitRef // distinct awaited phases, ascending: the last is the maximum
}

type regRef struct {
	e     *taskEntry
	phase int64
	ri    int32 // e.regs[ri] points back here
}

type waitRef struct {
	phase int64
	count int32 // blocked tasks awaiting it
}

// NewState returns an empty resource-dependency state.
func NewState() *State {
	return &State{
		tasks:      make(map[TaskID]*taskEntry),
		phasers:    make(map[PhaserID]*phaserNode),
		untilSweep: minSweep,
	}
}

// SetBlocked records (or replaces) the blocked status of b.Task and
// returns how many tasks it leaves blocked. The slices of b are copied; the
// caller keeps ownership of them.
func (s *State) SetBlocked(b Blocked) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setBlocked(b)
	return s.count
}

// BlockThrough is SetBlocked then CycleThrough(b.Task, sc) — the avoidance
// gate — under one lock and with one look-up of the task.
func (s *State) BlockThrough(b Blocked, sc *CycleScratch) (*Cycle, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.through(s.setBlocked(b), sc)
}

// setBlocked is SetBlocked under the lock; it returns b.Task's entry.
func (s *State) setBlocked(b Blocked) *taskEntry {
	e := s.tasks[b.Task]
	switch {
	case e == nil:
		if n := len(s.free); n > 0 {
			e, s.free = s.free[n-1], s.free[:n-1]
		} else {
			e = new(taskEntry)
		}
		e.b.Task, e.slot = b.Task, int32(len(s.entries))
		s.entries = append(s.entries, e)
		s.tasks[b.Task] = e
		s.count++
	case e.blocked:
		s.releaseWaits(e)
	default:
		s.count++
	}
	e.blocked, e.gen = true, s.gen
	s.setRegs(e, b.Regs)
	s.setWaits(e, b.WaitsFor)
	// Bump the version before releasing the lock: a version a reader
	// observes must never lag a mutation that is already visible, or the
	// version-keyed caches would serve stale verdicts.
	s.version.Add(1)
	return e
}

// Reregister makes regs the registrations of blocked task t, which keeps
// what it awaits, and reports true; a task with no status is left alone.
func (s *State) Reregister(t TaskID, regs []Reg) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.tasks[t]
	if e == nil || !e.blocked {
		return false
	}
	s.setRegs(e, regs)
	s.version.Add(1) // under the lock: see setBlocked
	return true
}

// Clear removes the blocked status of t (the task resumed) and returns how
// many tasks it leaves blocked. Clearing an absent task is a no-op.
func (s *State) Clear(t TaskID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clear(t)
	return s.count
}

// ClearAll is Clear of every task in ts under one lock: the waiters a
// phaser's release frees.
func (s *State) ClearAll(ts []TaskID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range ts {
		s.clear(t)
	}
	return s.count
}

// clear is Clear under the lock.
func (s *State) clear(t TaskID) {
	if e := s.tasks[t]; e != nil && e.blocked {
		e.blocked = false
		s.releaseWaits(e)
		s.count--
		s.version.Add(1) // under the lock: see setBlocked
		if s.untilSweep--; s.untilSweep <= 0 {
			s.sweep()
		}
	}
}

// Len returns the number of currently blocked tasks.
func (s *State) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Version returns a counter incremented on every mutation; the detection
// loop uses it to skip re-analysis of an unchanged state.
func (s *State) Version() uint64 { return s.version.Load() }

// node returns the index node of phaser q, creating it if needed.
func (s *State) node(q PhaserID) *phaserNode {
	n := s.phasers[q]
	if n == nil {
		n = &phaserNode{id: q}
		s.phasers[q] = n
	}
	return n
}

// dropIfEmpty forgets a node nothing is registered with or waiting on.
func (s *State) dropIfEmpty(n *phaserNode) {
	if len(n.regs) == 0 && len(n.waits) == 0 {
		n.dead = true
		delete(s.phasers, n.id)
	}
}

// setRegs makes regs the registration vector of e. Against the same
// phasers in the same order only the phases that moved are written;
// anything else re-indexes the entry.
func (s *State) setRegs(e *taskEntry, regs []Reg) {
	if len(regs) == len(e.b.Regs) {
		i := 0
		for ; i < len(regs) && regs[i].Phaser == e.b.Regs[i].Phaser; i++ {
			if ph := regs[i].Phase; ph != e.b.Regs[i].Phase {
				e.b.Regs[i].Phase = ph
				sl := e.regs[i]
				sl.node.regs[sl.pos].phase = ph
			}
		}
		if i == len(regs) {
			return
		}
	}
	s.unindexRegs(e)
	e.b.Regs = append(e.b.Regs[:0], regs...)
	for i, r := range regs {
		n := s.node(r.Phaser)
		e.regs = append(e.regs, regSlot{node: n, pos: int32(len(n.regs))})
		n.regs = append(n.regs, regRef{e: e, phase: r.Phase, ri: int32(i)})
	}
}

// unindexRegs takes e's registrations out of the index.
func (s *State) unindexRegs(e *taskEntry) {
	for _, sl := range e.regs {
		n, last := sl.node, len(sl.node.regs)-1
		if m := n.regs[last]; int(sl.pos) != last {
			n.regs[sl.pos] = m
			m.e.regs[m.ri].pos = sl.pos
		}
		n.regs[last] = regRef{}
		n.regs = n.regs[:last]
		s.dropIfEmpty(n)
	}
	clear(e.regs)
	e.regs = e.regs[:0]
}

// setWaits makes waits the awaited events of e, which holds none.
func (s *State) setWaits(e *taskEntry, waits []Resource) {
	e.b.WaitsFor = append(e.b.WaitsFor[:0], waits...)
	for len(e.waits) < len(waits) {
		e.waits = append(e.waits, nil)
	}
	for i, r := range waits {
		n := e.waits[i]
		if n == nil || n.id != r.Phaser || n.dead {
			n = s.node(r.Phaser)
			e.waits[i] = n
		}
		// The lists are a phase or two long and a new wait is usually the
		// highest, so search from the top.
		w, j := n.waits, len(n.waits)
		for j > 0 && w[j-1].phase > r.Phase {
			j--
		}
		if j > 0 && w[j-1].phase == r.Phase {
			w[j-1].count++
		} else {
			n.waits = slices.Insert(w, j, waitRef{phase: r.Phase, count: 1})
		}
	}
}

// releaseWaits withdraws e's awaited events from the index, leaving
// e.waits behind as the hint for the next setWaits.
func (s *State) releaseWaits(e *taskEntry) {
	for i, r := range e.b.WaitsFor {
		n := e.waits[i]
		j := len(n.waits) - 1
		for n.waits[j].phase != r.Phase { // present: e awaited it
			j--
		}
		if n.waits[j].count--; n.waits[j].count == 0 {
			n.waits = slices.Delete(n.waits, j, j+1)
			s.dropIfEmpty(n)
		}
	}
}

// sweep reclaims the entries that stayed idle for a whole sweep interval
// and renumbers the rest.
func (s *State) sweep() {
	kept := s.entries[:0]
	for _, e := range s.entries {
		if !e.blocked && e.gen != s.gen {
			s.unindexRegs(e)
			delete(s.tasks, e.b.Task)
			if e.b.Regs = e.b.Regs[:0]; len(s.free) < minSweep {
				clear(e.waits) // hints for another task's phasers
				s.free = append(s.free, e)
			}
			continue
		}
		e.slot = int32(len(kept))
		kept = append(kept, e)
	}
	clear(s.entries[len(kept):])
	s.entries = kept
	s.gen++
	s.untilSweep = max(minSweep, s.count)
}

// Snapshot returns a deep copy of all blocked statuses, sorted by task ID
// for determinism. The copy is consistent (taken under the lock) and
// independent: later SetBlocked/Clear calls can never mutate a returned
// snapshot.
func (s *State) Snapshot() []Blocked {
	return s.SnapshotInto(nil)
}

// SnapshotInto is Snapshot writing into buf (which is overwritten and may
// be grown). The entries of buf — including their WaitsFor/Regs slices —
// are reused, so a caller that snapshots periodically into the same buffer
// allocates nothing once the buffer is warm.
func (s *State) SnapshotInto(buf []Blocked) []Blocked {
	out := buf[:0]
	s.mu.Lock()
	for _, e := range s.entries {
		if !e.blocked {
			continue
		}
		if len(out) < cap(out) {
			out = out[:len(out)+1]
		} else {
			out = append(out, Blocked{})
		}
		dst := &out[len(out)-1]
		dst.Task = e.b.Task
		dst.WaitsFor = append(dst.WaitsFor[:0], e.b.WaitsFor...)
		dst.Regs = append(dst.Regs[:0], e.b.Regs...)
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b Blocked) int { return cmp.Compare(a.Task, b.Task) })
	return out
}

// CycleScratch holds the reusable working set of CycleThrough and
// FindCycle. The zero value is ready to use; it grows to the largest state
// it has searched and is then reused allocation-free. Owned by one checker
// at a time.
type CycleScratch struct {
	frames []cycleFrame
	// stamp[slot] == epoch marks the entry in that slot as on the current
	// search's path, epoch+1 as finished, so starting a search clears
	// nothing.
	stamp  []uint32
	parent []int32
	epoch  uint32
}

// cycleFrame is one entry on the search path and how far through its
// out-edges the search is: the next registration of the node of its
// wait-th awaited event.
type cycleFrame struct {
	slot, wait, reg int32
}

// begin readies sc for a search over n entry slots.
func (sc *CycleScratch) begin(n int) {
	if len(sc.stamp) < n {
		sc.stamp = slices.Grow(sc.stamp, n-len(sc.stamp))[:n]
		sc.parent = slices.Grow(sc.parent, n-len(sc.parent))[:n]
	}
	if sc.epoch > math.MaxUint32-3 { // the next two marks would wrap onto old stamps
		clear(sc.stamp)
		sc.epoch = 0
	}
	sc.epoch += 2
}

// impeded is the in-edge pre-filter: whether some blocked task awaits an
// event e impedes. Without that no edge enters e and no cycle passes
// through it. In the common case (the task arrived, so it impedes only
// future phases nobody awaits yet) it answers with one compare per
// registration.
func impeded(e *taskEntry) bool {
	for i, sl := range e.regs {
		if w := sl.node.waits; len(w) > 0 && w[len(w)-1].phase > e.b.Regs[i].Phase {
			return true
		}
	}
	return false
}

// CycleThrough looks for a Wait-For-Graph cycle passing through task start
// — the avoidance-mode gate query: a cycle created by start blocking must
// pass through start, so nothing else needs to be searched. It reads the
// incremental index directly (no snapshot, no graph build) and traverses
// only the tasks reachable from start. The returned count is the number of
// WFG edges examined, the targeted-check analogue of the edge-count
// statistic of the full builders.
//
// The whole search runs under the lock, so the view is consistent; with sc
// warm the deadlock-free path performs no allocations.
func (s *State) CycleThrough(start TaskID, sc *CycleScratch) (*Cycle, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.through(s.tasks[start], sc)
}

// through is CycleThrough from the entry se (nil when the task has none).
// Caller holds the lock.
func (s *State) through(se *taskEntry, sc *CycleScratch) (*Cycle, int) {
	if se == nil || !se.blocked || !impeded(se) {
		return nil, 0
	}
	sc.begin(len(s.entries))
	return s.search(se, se, sc)
}

// FindCycle answers "deadlocked now?" for the whole state: one coloured
// depth-first search over the index under one lock, expanding every
// blocked task at most once, O(V+E). A root the in-edge pre-filter rejects
// is passed over (a task reached over an edge has its in-edge). It returns
// the WFG edges examined, as CycleThrough does, and with sc warm the
// deadlock-free path performs no allocations.
func (s *State) FindCycle(sc *CycleScratch) (*Cycle, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc.begin(len(s.entries))
	edges := 0
	for _, root := range s.entries {
		if root.blocked && sc.stamp[root.slot] != sc.epoch+1 && impeded(root) {
			cyc, e := s.search(root, nil, sc)
			if edges += e; cyc != nil {
				return cyc, edges
			}
		}
	}
	return nil, edges
}

// search is the depth-first search from root. Every task it reaches is
// expanded once and left finished, so the searches of one FindCycle pass
// never expand a task twice. An edge into through closes a cycle — or,
// when through is nil, an edge into any task on the search path. Caller
// holds the lock and has begun sc.
func (s *State) search(root, through *taskEntry, sc *CycleScratch) (*Cycle, int) {
	onPath, done := sc.epoch, sc.epoch+1
	sc.stamp[root.slot] = onPath
	sc.frames = append(sc.frames[:0], cycleFrame{slot: root.slot})
	edges := 0
	for len(sc.frames) > 0 {
		f := &sc.frames[len(sc.frames)-1]
		u := s.entries[f.slot]
		w := nextEdge(u, f)
		if w == nil { // every edge out of u examined
			sc.stamp[u.slot] = done
			sc.frames = sc.frames[:len(sc.frames)-1]
			continue
		}
		edges++
		switch st := sc.stamp[w.slot]; {
		case w == through || through == nil && st == onPath:
			return s.cycleFound(w, u, sc), edges
		case st != onPath && st != done:
			sc.stamp[w.slot] = onPath
			sc.parent[w.slot] = u.slot
			sc.frames = append(sc.frames, cycleFrame{slot: w.slot})
		}
	}
	return nil, edges
}

// nextEdge advances f, the frame of u, to u's next WFG edge and returns the
// blocked task it enters, or nil when none is left.
func nextEdge(u *taskEntry, f *cycleFrame) *taskEntry {
	for ; int(f.wait) < len(u.b.WaitsFor); f.wait, f.reg = f.wait+1, 0 {
		phase, regs := u.b.WaitsFor[f.wait].Phase, u.waits[f.wait].regs
		for j := f.reg; int(j) < len(regs); j++ {
			if ref := &regs[j]; ref.phase < phase && ref.e.blocked {
				f.reg = j + 1
				return ref.e
			}
		}
	}
	return nil
}

// cycleFound translates the search path start -> ... -> last (plus the
// closing edge last -> start) into a Cycle report. Runs on the deadlock
// path only, so it allocates freely. Caller holds the lock.
func (s *State) cycleFound(start, last *taskEntry, sc *CycleScratch) *Cycle {
	c := &Cycle{Model: ModelWFG}
	seen := make(map[Resource]bool)
	for e := last; ; e = s.entries[sc.parent[e.slot]] {
		c.Tasks = append(c.Tasks, e.b.Task)
		if e == start {
			break
		}
	}
	slices.Reverse(c.Tasks)
	for _, t := range c.Tasks {
		for _, r := range s.tasks[t].b.WaitsFor {
			if !seen[r] {
				seen[r] = true
				c.Resources = append(c.Resources, r)
			}
		}
	}
	return c
}
