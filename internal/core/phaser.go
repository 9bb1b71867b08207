package core

import (
	"errors"
	"fmt"
	"sync"

	"armus/internal/deps"
)

// Errors returned by phaser operations.
var (
	// ErrNotRegistered is returned when a task uses a phaser it is not a
	// member of in a way that requires membership.
	ErrNotRegistered = errors.New("armus: task is not registered with this phaser")
	// ErrAlreadyRegistered is returned by Register for an existing member.
	ErrAlreadyRegistered = errors.New("armus: task is already registered with this phaser")
	// ErrSignalOnlyWait is returned when a signal-only member tries to
	// wait on the phaser.
	ErrSignalOnlyWait = errors.New("armus: signal-only member cannot wait on this phaser")
)

// RegMode is the HJ-style registration mode of a phaser member, the
// §2.2/§5.3 refinement that lets some tasks advance without waiting:
// signal-capable members gate every await, wait-only members gate nothing.
type RegMode int

const (
	// SigWait members both signal (their phase gates awaits) and wait —
	// the classic barrier party and the default.
	SigWait RegMode = iota
	// SignalOnly members signal but may never wait (HJ's SIG mode:
	// producers that can always run ahead). Waiting on the phaser in
	// this mode is a programming error.
	SignalOnly
	// WaitOnly members wait but never gate others (HJ's WAIT mode:
	// consumers). They impede nothing, so they never appear on the
	// impedes side of the analysis.
	WaitOnly
)

func (m RegMode) String() string {
	switch m {
	case SigWait:
		return "sig-wait"
	case SignalOnly:
		return "signal-only"
	case WaitOnly:
		return "wait-only"
	default:
		return fmt.Sprintf("regmode(%d)", int(m))
	}
}

// Phaser is the general barrier of the paper (§3): a map from member tasks
// to local phases, with dynamic membership. It subsumes cyclic barriers,
// join barriers, latches, X10 clocks and Java phasers; see package barrier
// for those derived abstractions.
//
// Semantics (Figure 4 of the paper):
//
//   - Register adds a member that inherits the registrar's local phase
//     ([reg]; the side condition ∃t′: P(t′) ≤ n holds by construction).
//   - Deregister revokes membership ([dereg]).
//   - Arrive increments the caller's local phase ([adv]); it never blocks,
//     which is what enables split-phase synchronisation.
//   - AwaitPhase blocks until every member's local phase is at least n
//     ([sync]: await(P, n) ⇔ ∀t ∈ dom(P): P(t) ≥ n). A phaser with no
//     members satisfies every await (∀ over the empty domain).
//
// All blocking entry points participate in deadlock verification according
// to the owning verifier's mode.
type Phaser struct {
	id deps.PhaserID
	v  *Verifier

	mu   sync.Mutex
	cond *sync.Cond
	// members maps each member task to its registration (shared with the
	// task's own vector). Phases only change under mu.
	members map[*Task]*registration
	// signal counts signal-capable (non-WaitOnly) members.
	signal int
	// min is the smallest local phase among members — the highest globally
	// observed synchronisation event. atMin counts members at min so that
	// the O(members) recomputation runs once per phase, not per arrival.
	min   int64
	atMin int
}

// NewPhaser creates a phaser and registers creator at phase 0, following
// PL's newPhaser (the creating task is implicitly a member, as with X10
// clock creation).
func (v *Verifier) NewPhaser(creator *Task) *Phaser {
	p := &Phaser{
		id:      deps.PhaserID(v.phaserBase + v.nextPhaser.Add(1)),
		v:       v,
		members: make(map[*Task]*registration),
	}
	p.cond = sync.NewCond(&p.mu)
	p.mu.Lock()
	rep := p.addMemberLocked(creator, 0, SigWait)
	p.mu.Unlock()
	v.report(rep)
	return p
}

// ID returns the phaser's verifier-unique identifier.
func (p *Phaser) ID() deps.PhaserID { return p.id }

// addMemberLocked inserts t at the given phase. Caller holds p.mu; t must
// not already be a member. Only signal-capable members participate in the
// min/atMin bookkeeping that gates awaits. It returns the deadlock that
// refreshing a blocked t closed, for the caller to report after unlocking.
func (p *Phaser) addMemberLocked(t *Task, phase int64, mode RegMode) *DeadlockError {
	// Trace the registration before the membership refresh below so a
	// recorded refresh (a Block event) never precedes its cause.
	p.v.traceRegister(t.id, p.id, phase, mode)
	r := &registration{phaser: p, mode: mode}
	r.phase.Store(phase)
	if mode != WaitOnly {
		if p.signal == 0 {
			p.min = phase
			p.atMin = 1
		} else if phase == p.min {
			p.atMin++
		} else if phase < p.min {
			// Cannot happen via Register (inheritance keeps phase >= min)
			// but kept for internal callers.
			p.min = phase
			p.atMin = 1
		}
		p.signal++
	}
	p.members[t] = r
	t.mu.Lock()
	t.regs = append(t.regs, r)
	rep := t.refreshLocked()
	t.mu.Unlock()
	return rep
}

// removeMemberLocked deletes t's membership and wakes waiters whose await
// became satisfiable. Caller holds p.mu. Like addMemberLocked it returns
// a deadlock its refresh of a blocked t found.
func (p *Phaser) removeMemberLocked(t *Task) *DeadlockError {
	r, ok := p.members[t]
	if !ok {
		return nil
	}
	p.v.traceDrop(t.id, p.id)
	delete(p.members, t)
	t.mu.Lock()
	t.dropRegLocked(r)
	rep := t.refreshLocked()
	t.mu.Unlock()
	if r.mode != WaitOnly { // a wait-only member never gated anyone
		p.signal--
		switch {
		case p.signal == 0:
			p.atMin = 0
			p.cond.Broadcast()
		case r.phase.Load() == p.min:
			p.atMin--
			if p.atMin == 0 {
				p.recomputeMinLocked()
				p.cond.Broadcast()
			}
		}
	}
	return rep
}

// recomputeMinLocked recomputes min/atMin over the signal-capable members
// after the last one at min advanced or left. Caller holds p.mu; at least
// one signal-capable member exists.
func (p *Phaser) recomputeMinLocked() {
	first := true
	for _, r := range p.members {
		if r.mode == WaitOnly {
			continue
		}
		ph := r.phase.Load()
		if first || ph < p.min {
			p.min = ph
			p.atMin = 1
			first = false
		} else if ph == p.min {
			p.atMin++
		}
	}
}

// Register adds newcomer as a member, inheriting registrar's local phase
// (PL's reg(t, p)). registrar must be a member; newcomer must not be.
// Registering a task that is currently blocked refreshes its published
// blocked status so the analysis sees the new impedes-dependency at once.
func (p *Phaser) Register(registrar, newcomer *Task) error {
	return p.RegisterMode(registrar, newcomer, SigWait)
}

// RegisterMode is Register with an explicit HJ registration mode for the
// newcomer: SignalOnly producers never wait (and may always run ahead);
// WaitOnly consumers never gate an await (and never impede, so they cannot
// be the target of a dependency edge).
func (p *Phaser) RegisterMode(registrar, newcomer *Task, mode RegMode) error {
	var rep *DeadlockError
	defer func() { p.v.report(rep) }() // after the unlock
	p.mu.Lock()
	defer p.mu.Unlock()
	rr, ok := p.members[registrar]
	if !ok {
		return ErrNotRegistered
	}
	if _, dup := p.members[newcomer]; dup {
		return ErrAlreadyRegistered
	}
	rep = p.addMemberLocked(newcomer, rr.phase.Load(), mode)
	return nil
}

// Mode returns t's registration mode on p, and whether t is a member.
func (p *Phaser) Mode(t *Task) (RegMode, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.members[t]
	if !ok {
		return 0, false
	}
	return r.mode, true
}

// Deregister revokes t's membership (PL's dereg(p)). Waiters whose await
// becomes satisfied are woken: dropping membership is the standard fix for
// missing-participant deadlocks (§2.1).
func (p *Phaser) Deregister(t *Task) error {
	var rep *DeadlockError
	defer func() { p.v.report(rep) }() // after the unlock
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.members[t]; !ok {
		return ErrNotRegistered
	}
	rep = p.removeMemberLocked(t)
	return nil
}

// Arrive increments t's local phase (PL's adv(p)) without blocking — the
// initiation half of a split-phase synchronisation — and returns the new
// local phase. Await the returned phase (AwaitPhase) or the task's current
// phase (AwaitAdvance) to complete the synchronisation.
func (p *Phaser) Arrive(t *Task) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.members[t]
	if !ok {
		return 0, ErrNotRegistered
	}
	n := p.arriveLocked(r)
	p.v.traceArrive(t.id, p.id, n)
	return n, nil
}

// arriveLocked advances r's phase, maintaining the signal-member min.
// A wait-only member's phase is private pacing state and gates nothing.
func (p *Phaser) arriveLocked(r *registration) int64 {
	old := r.phase.Load()
	r.phase.Store(old + 1)
	if r.mode != WaitOnly && old == p.min {
		p.atMin--
		if p.atMin == 0 {
			p.recomputeMinLocked()
			p.cond.Broadcast()
		}
	}
	return old + 1
}

// ArriveAndDeregister signals arrival and revokes membership in one step
// (Java Phaser.arriveAndDeregister; PL adv;dereg). It never blocks.
func (p *Phaser) ArriveAndDeregister(t *Task) error {
	return p.Deregister(t)
}

// AwaitAdvance blocks until every member has reached t's own local phase
// (PL's await(p): the awaited phase is the caller's). t must be a member.
func (p *Phaser) AwaitAdvance(t *Task) error {
	p.mu.Lock()
	r, ok := p.members[t]
	if !ok {
		p.mu.Unlock()
		return ErrNotRegistered
	}
	if r.mode == SignalOnly {
		p.mu.Unlock()
		return ErrSignalOnlyWait
	}
	return p.awaitLocked(t, r.phase.Load())
}

// Advance arrives and then awaits the new phase: the X10 clock advance()
// and Java arriveAndAwaitAdvance(). On ErrDeadlock (avoidance mode) the
// task has already arrived and been deregistered from p.
func (p *Phaser) Advance(t *Task) error {
	p.mu.Lock()
	r, ok := p.members[t]
	if !ok {
		p.mu.Unlock()
		return ErrNotRegistered
	}
	if r.mode == SignalOnly {
		p.mu.Unlock()
		return ErrSignalOnlyWait // signal-only members use Arrive
	}
	n := p.arriveLocked(r)
	p.v.traceArrive(t.id, p.id, n)
	return p.awaitLocked(t, n)
}

// AwaitPhase blocks until every member's local phase is at least n — the
// HJ generalisation that lets a task await an arbitrary (future) phase.
// t need not be a member (a pure observer waits but never impedes).
func (p *Phaser) AwaitPhase(t *Task, n int64) error {
	p.mu.Lock()
	if r, ok := p.members[t]; ok && r.mode == SignalOnly {
		p.mu.Unlock()
		return ErrSignalOnlyWait
	}
	return p.awaitLocked(t, n)
}

// satisfiedLocked reports whether await(P, n) holds: every signal-capable
// member has a local phase of at least n (∀ over an empty set holds).
func (p *Phaser) satisfiedLocked(n int64) bool {
	return p.signal == 0 || p.min >= n
}

// awaitLocked implements the verified blocking wait for phase n of p.
// Caller holds p.mu; awaitLocked releases it in all paths.
func (p *Phaser) awaitLocked(t *Task, n int64) error {
	if p.satisfiedLocked(n) {
		p.mu.Unlock()
		return nil
	}
	if p.v.mode == ModeOff {
		p.v.offParks.Add(1)
		for !p.satisfiedLocked(n) {
			p.cond.Wait()
		}
		p.mu.Unlock()
		return nil
	}
	// Publish the blocked status AFTER any arrival so the registration
	// vector reflects the task's true (now frozen) phases.
	if cyc := t.block(deps.Resource{Phaser: p.id, Phase: n}); cyc != nil {
		// Deregister the failing task so other members can proceed — the
		// paper's avoidance recovery (§2.1). t holds no status, so there is
		// no refresh to report.
		p.removeMemberLocked(t)
		p.mu.Unlock()
		return p.v.newDeadlockError(cyc)
	}
	for !p.satisfiedLocked(n) {
		p.cond.Wait()
	}
	// Clear before returning: the no-false-positive invariant requires a
	// task's record to be gone before it mutates any phaser again.
	p.v.unblock(t.id)
	p.mu.Unlock()
	return nil
}

// Phase returns t's local phase on p, and whether t is a member.
func (p *Phaser) Phase(t *Task) (int64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.members[t]
	if !ok {
		return 0, false
	}
	return r.phase.Load(), true
}

// ObservedPhase returns the highest globally observed phase: the minimum
// local phase among members (0 for an empty phaser).
func (p *Phaser) ObservedPhase() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.min
}

// NumMembers returns the current number of registered tasks.
func (p *Phaser) NumMembers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.members)
}
