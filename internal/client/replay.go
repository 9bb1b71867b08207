package client

import (
	"errors"
	"fmt"
	"time"

	"armus/internal/core"
	"armus/internal/engine"
	"armus/internal/obs"
	"armus/internal/trace"
)

// ReplayOptions configures ReplayTrace.
type ReplayOptions struct {
	// CheckEvery inserts a Checkpoint round trip after every n-th
	// mutation (0 disables checkpoints). With 1, the collected verdict
	// sequence is the remote analogue of replay.Result.Verdicts.
	CheckEvery int
	// Expected, when non-nil, is the per-mutation verdict sequence an
	// in-process replay of the same trace computed (replay.Result.
	// Verdicts of the Detect pipeline); every checkpoint verdict is
	// asserted against it. Only meaningful for detection sessions, where
	// every mutation is applied unconditionally.
	Expected []bool
}

// ReplayStats summarises one remote replay.
type ReplayStats struct {
	// Events is the number of events submitted (recorded verdict events
	// are skipped: on the wire they would read as checkpoints).
	Events int
	// Mutations is the number of block/unblock events submitted.
	Mutations int
	// Rejections counts avoidance-gate refusals.
	Rejections int
	// Checkpoints counts verdict round trips; Verdicts collects their
	// results in order.
	Checkpoints int
	Verdicts    []bool
	// Gate holds one round-trip time in nanoseconds per gated Block
	// (avoidance sessions only), in the histogram the server's stage timings
	// use: cheap to leave on, comparable with them bucket for bucket.
	Gate obs.Hist
}

// ReplayTrace streams a recorded trace through c's session and
// cross-checks the remote verdicts against the in-process machinery:
//
//   - In a DETECTION session every mutation is emitted unconditionally
//     and each checkpoint verdict is compared against o.Expected (the
//     in-process replay's verdict sequence) when provided.
//   - In an AVOIDANCE session every block round-trips the server's gate,
//     and the decision is compared against a local mirror gate (an
//     engine.Engine, the in-process avoidance machinery):
//     server and mirror must agree block-for-block on admit vs refuse,
//     and each checkpoint verdict must match the mirror's. This is
//     stronger than comparing final verdicts — it asserts the remote
//     gate is the in-process gate, decision for decision.
//
// Any disagreement is returned as an error (a parity violation, the
// remote analogue of a sim-harness divergence).
func ReplayTrace(c *Client, tr *trace.Trace, o ReplayOptions) (*ReplayStats, error) {
	st := &ReplayStats{}
	avoid := c.cfg.Mode == core.ModeAvoid
	// The mirror is the session engine itself (the type the server runs),
	// so a disagreement is the server session's, the wire's or the SDK's; the
	// engine's own reference is the oracle test in internal/engine.
	var mirror *engine.Engine
	if avoid {
		mirror = engine.New(true)
	}
	checkpoint := func() error {
		if o.CheckEvery <= 0 || st.Mutations%o.CheckEvery != 0 {
			return nil
		}
		got, err := c.Checkpoint()
		if err != nil {
			return err
		}
		st.Checkpoints++
		st.Verdicts = append(st.Verdicts, got)
		if avoid {
			if want := mirror.Check() != nil; got != want {
				return fmt.Errorf("parity: checkpoint after mutation %d: server says deadlocked=%v, mirror gate says %v",
					st.Mutations, got, want)
			}
		} else if o.Expected != nil {
			if st.Mutations > len(o.Expected) {
				return fmt.Errorf("parity: %d mutations submitted but in-process replay saw %d",
					st.Mutations, len(o.Expected))
			}
			if want := o.Expected[st.Mutations-1]; got != want {
				return fmt.Errorf("parity: verdict after mutation %d: server says %v, in-process replay says %v",
					st.Mutations, got, want)
			}
		}
		return nil
	}
	for i := range tr.Events {
		e := tr.Events[i]
		switch e.Kind {
		case trace.KindBlock:
			st.Events++
			st.Mutations++
			if !avoid {
				if err := c.Block(e.Status); err != nil {
					return st, err
				}
				if err := checkpoint(); err != nil {
					return st, err
				}
				continue
			}
			// Mirror gate decision first (tentative insert + targeted
			// query + rollback on cycle), then the wire gate; they must
			// agree.
			expectReject := mirror.Block(e.Status) != nil
			start := time.Now()
			err := c.Block(e.Status)
			st.Gate.Observe(int64(time.Since(start)))
			var ge *GateError
			rejected := errors.As(err, &ge)
			if err != nil && !rejected {
				return st, err
			}
			if rejected != expectReject {
				return st, fmt.Errorf("parity: gate decision for task%d at event %d: server rejected=%v, mirror gate rejected=%v",
					e.Status.Task, i, rejected, expectReject)
			}
			if rejected {
				st.Rejections++
			}
			if err := checkpoint(); err != nil {
				return st, err
			}
		case trace.KindUnblock:
			st.Events++
			st.Mutations++
			if err := c.Unblock(e.Task); err != nil {
				return st, err
			}
			if avoid {
				mirror.Unblock(e.Task)
			}
			if err := checkpoint(); err != nil {
				return st, err
			}
		case trace.KindVerdict:
			// Recorded verdicts are the RECORDING verifier's outputs, not
			// inputs; on the wire they would read as checkpoint queries.
		default:
			st.Events++
			if err := c.Emit(e); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}
