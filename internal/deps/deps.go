// Package deps implements the event-based resource-dependency state of
// Armus (§4 of the paper), whose incremental index every verdict searches,
// and its translations into the Wait-For Graph (WFG), the State Graph (SG),
// and the General Resource Graph (GRG), together with the adaptive
// model-selection policy of §5.1: the reference the search is tested and
// timed against.
//
// A resource is a synchronisation event: a (phaser, phase) pair, in the
// sense of a Lamport logical-clock timestamp. A blocked task contributes a
// status that is purely local to it:
//
//   - the events it WAITS FOR (W(t) in the paper), and
//   - its registration vector — for each phaser it is registered with, its
//     local phase. The task IMPEDES every event of that phaser with a
//     strictly greater phase (t ∈ I(p,n) iff M(p)(t) < n, Definition 4.1).
//
// Nothing about other tasks (membership, arrival status) is required, which
// is the property that makes distributed verification cheap (§2.1, §5.2).
package deps

import (
	"fmt"
)

// TaskID names a task. IDs are assigned by the runtime (package core) and
// are unique per verifier; in distributed mode the site ID is folded into
// the upper bits so IDs remain globally unique.
type TaskID int64

// PhaserID names a phaser (equivalently, the logical clock of its events).
type PhaserID int64

// Resource is a synchronisation event: phase Phase of phaser Phaser.
// It plays the role of a classical resource (Holt 1972) in the graphs.
type Resource struct {
	Phaser PhaserID
	Phase  int64
}

func (r Resource) String() string {
	return fmt.Sprintf("phaser%d@%d", r.Phaser, r.Phase)
}

// Reg records a task's registration with a phaser at its current local
// phase. A task with registration (q, m) impedes every event (q, n), n > m.
type Reg struct {
	Phaser PhaserID
	Phase  int64
}

// Blocked is the full blocked status of one task: the events it waits for
// and its registration vector. It is the unit of information exchanged with
// the verifier (and, in distributed mode, published to the store).
type Blocked struct {
	Task     TaskID
	WaitsFor []Resource
	Regs     []Reg
}

// Model identifies a graph representation for cycle analysis.
type Model int

const (
	// ModelAuto selects between SG and WFG at each check according to the
	// §5.1 policy: build the SG, but fall back to the WFG as soon as the SG
	// edge count exceeds AdaptiveThreshold × (tasks processed so far).
	ModelAuto Model = iota
	// ModelWFG fixes the task-centric Wait-For Graph (Definition 4.2).
	ModelWFG
	// ModelSG fixes the event-centric State Graph (Definition 4.3).
	ModelSG
	// ModelGRG is the bipartite General Resource Graph (Definition 4.4);
	// it bridges WFG and SG in the equivalence proof and is exposed for
	// testing and tooling, not for production checking.
	ModelGRG
)

func (m Model) String() string {
	switch m {
	case ModelAuto:
		return "auto"
	case ModelWFG:
		return "wfg"
	case ModelSG:
		return "sg"
	case ModelGRG:
		return "grg"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// AdaptiveThreshold is the multiplier of the §5.1 bail-out rule: while
// building the SG, if at any point there are more SG edges than
// AdaptiveThreshold × tasks processed thus far, a WFG is built instead.
// The paper reports 2 as the empirically best value.
const AdaptiveThreshold = 2
