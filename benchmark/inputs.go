package main

import (
	"fmt"

	"armus/benchmark/gen"
	"armus/internal/core"
	"armus/internal/trace"
	"armus/internal/trace/replay"
)

// input is one generated, validated trace together with what the output
// checks compare the system's answers against.
type input struct {
	tr *trace.Trace
	// verdicts is the deadlock verdict after each mutation of the trace,
	// as the in-process replay.Detect pipeline computes it.
	verdicts []bool
	// refuse[i] reports whether event i is a block the avoidance gate must
	// refuse, as the replay.AvoidEngine mirror decides it (avoid traces
	// only; nil otherwise).
	refuse    []bool
	mutations int
	gates     int
	refusals  int
}

// makeInput generates the trace and validates it the way the repository
// validates its own corpus: through all three replay pipelines, verdict for
// verdict. Set-up fails if the injections that were asked for are not
// there: a benchmark that believes it measures refusals or deadlock
// episodes and sends none would still print numbers.
func makeInput(cfg gen.Config) (*input, error) {
	tr, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	res, err := replay.VerifyAll(tr, replay.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tr.Label, err)
	}
	in := &input{tr: tr}
	for _, r := range res {
		if r.Pipeline == replay.Detect {
			in.verdicts, in.mutations = r.Verdicts, r.Mutations
		}
	}
	if res[0].Deadlocked {
		return nil, fmt.Errorf("%s: ends deadlocked, cannot be replayed in a loop", tr.Label)
	}
	if cfg.Mode != core.ModeAvoid {
		if cfg.InjectEvery > 0 && res[0].DeadlockSteps == 0 {
			return nil, fmt.Errorf("%s: deadlock episodes were asked for and the replay saw none", tr.Label)
		}
		return in, nil
	}
	mirror := replay.NewAvoidEngine()
	in.refuse = make([]bool, len(tr.Events))
	for i := range tr.Events {
		switch e := &tr.Events[i]; {
		case e.Kind == trace.KindBlock:
			in.gates++
			if mirror.Gate(e.Status) {
				return nil, fmt.Errorf("%s: the mirror refuses the ordinary block at event %d", tr.Label, i)
			}
		case e.Kind == trace.KindUnblock:
			mirror.Clear(e.Task)
		case e.Kind == trace.KindVerdict && e.Verdict == trace.VerdictRejected:
			in.gates++
			if !mirror.Gate(e.Status) {
				return nil, fmt.Errorf("%s: the mirror admits the injected block at event %d", tr.Label, i)
			}
			in.refuse[i] = true
			in.refusals++
		}
	}
	if cfg.InjectEvery > 0 && in.refusals == 0 {
		return nil, fmt.Errorf("%s: refusals were asked for and the mirror saw none", tr.Label)
	}
	return in, nil
}
