// Package trace is the record half of the Armus trace record/replay
// subsystem: a compact, versioned, CRC-footed binary event-log format that
// captures every verifier transition — register, arrive (signal), drop,
// block, unblock, verdict — plus the Recorder that package core taps
// (core.WithTraceRecorder / armus.WithTraceWriter) and a streaming
// Reader/Writer pair for the wire format.
//
// A trace is one observed linearization of a verifier's life: the ordered
// sequence of its resource-dependency-state mutations (block / unblock,
// each carrying the full published status) interleaved with the structural
// events around them and with the verdicts the verifier delivered
// (avoidance-gate rejections and deadlock reports). Concurrent mutations on
// different phasers are recorded in the order the recorder observes them,
// which is one valid interleaving but not necessarily the one the state
// applied; everything the replayer asserts (package replay) is stated
// over the recorded order, so this never produces spurious divergences.
//
// Recording turns every interesting execution — an hpcc/npb workload, a
// schedule the sim harness found a bug on — into a permanent artifact:
// package replay feeds it back through the avoidance, detection and
// observe+dist pipelines and asserts verdict-for-verdict equivalence, and
// the checked-in corpus under testdata/corpus/ is replayed in CI on every
// change.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"armus/internal/deps"
)

// Kind enumerates the recorded verifier transitions.
type Kind uint8

const (
	// KindRegister records a task joining a phaser at a phase, in an HJ
	// registration mode (the numeric value of core.RegMode).
	KindRegister Kind = 1
	// KindArrive records a task signalling a phaser; Phase is the task's
	// new local phase.
	KindArrive Kind = 2
	// KindDrop records a task's membership being revoked.
	KindDrop Kind = 3
	// KindBlock records a blocked status being published (or refreshed) in
	// the verifier state; Status carries the full deps.Blocked record.
	KindBlock Kind = 4
	// KindUnblock records a blocked status being cleared (the task
	// resumed).
	KindUnblock Kind = 5
	// KindVerdict records a verdict the verifier delivered: an
	// avoidance-gate rejection or a deadlock report.
	KindVerdict Kind = 6
)

func (k Kind) String() string {
	switch k {
	case KindRegister:
		return "register"
	case KindArrive:
		return "arrive"
	case KindDrop:
		return "drop"
	case KindBlock:
		return "block"
	case KindUnblock:
		return "unblock"
	case KindVerdict:
		return "verdict"
	case kindReblock:
		return "re-block"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// VerdictKind distinguishes the two verdict events a verifier delivers.
type VerdictKind uint8

const (
	// VerdictRejected is an avoidance-gate refusal: Status is the blocked
	// status the gate rolled back, Tasks/Resources the cycle it would have
	// closed. The state mutation never happened (no KindBlock is recorded
	// for it), so the replayer re-validates the rejection by tentatively
	// inserting Status and re-running the gate query.
	VerdictRejected VerdictKind = 1
	// VerdictReported is a deadlock report (detection loop, or an
	// avoidance-mode refresh of a blocked task): Tasks/Resources describe
	// the reported cycle.
	VerdictReported VerdictKind = 2
)

func (k VerdictKind) String() string {
	switch k {
	case VerdictRejected:
		return "rejected"
	case VerdictReported:
		return "reported"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(k))
	}
}

// Event is one recorded verifier transition. Which fields are meaningful
// depends on Kind; unused fields are zero (and encode to nothing).
type Event struct {
	Kind Kind
	// Task is the acting task: the joiner (register), signaller (arrive),
	// leaver (drop), resumer (unblock), or the blocked/rejected task
	// (block / verdict-rejected, mirroring Status.Task).
	Task deps.TaskID
	// Phaser is the phaser acted on (register / arrive / drop).
	Phaser deps.PhaserID
	// Phase is the joining phase (register) or new local phase (arrive).
	Phase int64
	// Mode is the numeric core.RegMode of a registration.
	Mode uint8
	// Status is the full published blocked status (block) or the refused
	// one (verdict-rejected).
	Status deps.Blocked
	// Verdict classifies a KindVerdict event.
	Verdict VerdictKind
	// Tasks and Resources are the cycle of a verdict event.
	Tasks     []deps.TaskID
	Resources []deps.Resource
}

// IsMutation reports whether the event changes the resource-dependency
// state — the events the replayer applies (and computes a verdict after).
func (e Event) IsMutation() bool { return e.Kind == KindBlock || e.Kind == KindUnblock }

// Apply applies a mutation to st: a block sets its status, an unblock
// clears its task. Any other event changes nothing.
func (e *Event) Apply(st *deps.State) {
	switch e.Kind {
	case KindBlock:
		st.SetBlocked(e.Status)
	case KindUnblock:
		st.Clear(e.Task)
	}
}

// String renders the event for armus-trace inspect.
func (e Event) String() string {
	switch e.Kind {
	case KindRegister:
		return fmt.Sprintf("register task%d p%d@%d mode=%d", e.Task, e.Phaser, e.Phase, e.Mode)
	case KindArrive:
		return fmt.Sprintf("arrive   task%d p%d -> %d", e.Task, e.Phaser, e.Phase)
	case KindDrop:
		return fmt.Sprintf("drop     task%d p%d", e.Task, e.Phaser)
	case KindBlock:
		return fmt.Sprintf("block    %s", statusString(e.Status))
	case KindUnblock:
		return fmt.Sprintf("unblock  task%d", e.Task)
	case KindVerdict:
		if e.Verdict == VerdictRejected {
			return fmt.Sprintf("verdict  rejected %s cycle=%v", statusString(e.Status), e.Tasks)
		}
		return fmt.Sprintf("verdict  reported tasks=%v events=%v", e.Tasks, e.Resources)
	default:
		return e.Kind.String()
	}
}

func statusString(b deps.Blocked) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "task%d waits[", b.Task)
	for i, r := range b.WaitsFor {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(r.String())
	}
	sb.WriteString("] regs[")
	for i, r := range b.Regs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "p%d@%d", r.Phaser, r.Phase)
	}
	sb.WriteString("]")
	return sb.String()
}

// Trace is a fully decoded (or fully recorded) trace: the header metadata
// plus the ordered event sequence.
type Trace struct {
	// Label identifies the recording (workload name, sim seed, ...).
	Label string
	// Mode is the numeric core.Mode of the recording verifier.
	Mode uint8
	// Events is the recorded transition sequence.
	Events []Event
}

// Mutations counts the state-mutating events of the trace.
func (t *Trace) Mutations() int {
	n := 0
	for _, e := range t.Events {
		if e.IsMutation() {
			n++
		}
	}
	return n
}

// Recorder accumulates the events of one verifier, in observation order.
// All methods are safe for concurrent use; record calls deep-copy their
// slice arguments, so callers may keep reusing their buffers (the zero-
// allocation hot path hands the recorder its task-owned status buffers).
// A nil-guarded tap in package core makes an unconfigured verifier pay a
// single pointer test per transition.
type Recorder struct {
	mu     sync.Mutex
	label  string
	mode   uint8
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// SetLabel sets the trace label written to the header.
func (r *Recorder) SetLabel(s string) {
	r.mu.Lock()
	r.label = s
	r.mu.Unlock()
}

// Label returns the current trace label.
func (r *Recorder) Label() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.label
}

// SetMode records the numeric core.Mode of the recording verifier
// (core.New calls it once the options are applied).
func (r *Recorder) SetMode(m uint8) {
	r.mu.Lock()
	r.mode = m
	r.mu.Unlock()
}

func (r *Recorder) append(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Register records a task joining a phaser.
func (r *Recorder) Register(t deps.TaskID, q deps.PhaserID, phase int64, mode uint8) {
	r.append(Event{Kind: KindRegister, Task: t, Phaser: q, Phase: phase, Mode: mode})
}

// Arrive records a task signalling a phaser; phase is the new local phase.
func (r *Recorder) Arrive(t deps.TaskID, q deps.PhaserID, phase int64) {
	r.append(Event{Kind: KindArrive, Task: t, Phaser: q, Phase: phase})
}

// Drop records a task's membership being revoked.
func (r *Recorder) Drop(t deps.TaskID, q deps.PhaserID) {
	r.append(Event{Kind: KindDrop, Task: t, Phaser: q})
}

// Block records a blocked status being published or refreshed. b's slices
// are copied.
func (r *Recorder) Block(b deps.Blocked) {
	r.append(Event{Kind: KindBlock, Task: b.Task, Status: copyStatus(b)})
}

// Unblock records a blocked status being cleared.
func (r *Recorder) Unblock(t deps.TaskID) {
	r.append(Event{Kind: KindUnblock, Task: t})
}

// Rejected records an avoidance-gate refusal of status b with the cycle it
// would have closed. All slices are copied.
func (r *Recorder) Rejected(b deps.Blocked, tasks []deps.TaskID, resources []deps.Resource) {
	r.append(Event{
		Kind:      KindVerdict,
		Verdict:   VerdictRejected,
		Task:      b.Task,
		Status:    copyStatus(b),
		Tasks:     copyTasks(tasks),
		Resources: copyResources(resources),
	})
}

// Reported records a delivered deadlock report. The slices are copied.
func (r *Recorder) Reported(tasks []deps.TaskID, resources []deps.Resource) {
	r.append(Event{
		Kind:      KindVerdict,
		Verdict:   VerdictReported,
		Tasks:     copyTasks(tasks),
		Resources: copyResources(resources),
	})
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Trace snapshots the recording: the returned trace owns an independent
// copy of the event sequence recorded so far (recording may continue).
func (r *Recorder) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	events := make([]Event, len(r.events))
	copy(events, r.events)
	return &Trace{Label: r.label, Mode: r.mode, Events: events}
}

func copyStatus(b deps.Blocked) deps.Blocked {
	return deps.Blocked{
		Task:     b.Task,
		WaitsFor: copyResources(b.WaitsFor),
		Regs:     copyRegs(b.Regs),
	}
}

func copyResources(rs []deps.Resource) []deps.Resource {
	if len(rs) == 0 {
		return nil
	}
	out := make([]deps.Resource, len(rs))
	copy(out, rs)
	return out
}

func copyRegs(rs []deps.Reg) []deps.Reg {
	if len(rs) == 0 {
		return nil
	}
	out := make([]deps.Reg, len(rs))
	copy(out, rs)
	return out
}

func copyTasks(ts []deps.TaskID) []deps.TaskID {
	if len(ts) == 0 {
		return nil
	}
	out := make([]deps.TaskID, len(ts))
	copy(out, ts)
	return out
}
