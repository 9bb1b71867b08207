package harness

import (
	"fmt"
	"time"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/dist"
	"armus/internal/store"
	"armus/internal/trace"
	"armus/internal/workloads/course"
	"armus/internal/workloads/hpcc"
	"armus/internal/workloads/npb"
)

// RunTable1 regenerates Table 1: relative execution overhead of deadlock
// DETECTION (periodic scan) on the NPB/JGF kernels, per task count.
func RunTable1(o Options) (*Table, error) {
	return overheadTable(o, core.ModeDetect,
		"Table 1: relative execution overhead in detection mode")
}

// RunTable2 regenerates Table 2: relative execution overhead of deadlock
// AVOIDANCE (check on every block) on the NPB/JGF kernels, per task count.
func RunTable2(o Options) (*Table, error) {
	return overheadTable(o, core.ModeAvoid,
		"Table 2: relative execution overhead in avoidance mode")
}

func overheadTable(o Options, mode core.Mode, title string) (*Table, error) {
	o.defaults()
	t := &Table{Title: title, Header: append([]string{"Threads"}, taskHeaders(o.TaskCounts)...)}
	for _, k := range npb.Kernels() {
		row := []string{k.Name}
		for _, tasks := range o.TaskCounts {
			base, err := MeasureLocal(o.Samples, core.ModeOff, 0,
				func(v *core.Verifier) error {
					_, err := k.Run(v, npb.Config{Tasks: tasks, Class: o.Class})
					return err
				})
			if err != nil {
				return nil, fmt.Errorf("%s/%d unchecked: %w", k.Name, tasks, err)
			}
			checked, err := MeasureLocal(o.Samples, mode, o.DetectPeriod,
				func(v *core.Verifier) error {
					_, err := k.Run(v, npb.Config{Tasks: tasks, Class: o.Class})
					return err
				})
			if err != nil {
				return nil, fmt.Errorf("%s/%d checked: %w", k.Name, tasks, err)
			}
			row = append(row, Pct(Overhead(checked, base)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Fprint(o.Out)
	return t, nil
}

func taskHeaders(counts []int) []string {
	out := make([]string, len(counts))
	for i, c := range counts {
		out[i] = fmt.Sprintf("%d", c)
	}
	return out
}

// RunFig6 regenerates Figure 6: absolute execution time per kernel and
// task count, unchecked vs detection vs avoidance (the paper plots
// unchecked and checked series; we print all three).
func RunFig6(o Options) ([]*Table, error) {
	o.defaults()
	var tables []*Table
	for _, k := range npb.Kernels() {
		t := &Table{
			Title:  fmt.Sprintf("Figure 6: benchmark %s execution time (mean ± 95%% CI)", k.Name),
			Header: []string{"Tasks", "Unchecked", "CI", "Detect", "CI", "Avoid", "CI"},
		}
		for _, tasks := range o.TaskCounts {
			row := []string{fmt.Sprintf("%d", tasks)}
			for _, mode := range []core.Mode{core.ModeOff, core.ModeDetect, core.ModeAvoid} {
				m, err := MeasureLocal(o.Samples, mode, o.DetectPeriod,
					func(v *core.Verifier) error {
						_, err := k.Run(v, npb.Config{Tasks: tasks, Class: o.Class})
						return err
					})
				if err != nil {
					return nil, fmt.Errorf("%s/%d/%v: %w", k.Name, tasks, mode, err)
				}
				row = append(row, Dur(m.Mean()), Dur(m.CI95()))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Fprint(o.Out)
		tables = append(tables, t)
	}
	return tables, nil
}

// RunFig7 regenerates Figure 7: distributed benchmarks with and without
// distributed deadlock detection (sites publish every 200 ms and check the
// merged global view; unchecked sites run with verification off and no
// publisher).
func RunFig7(o Options) (*Table, error) {
	o.defaults()
	t := &Table{
		Title:  "Figure 7: distributed deadlock detection (mean ± 95% CI)",
		Header: []string{"Benchmark", "Unchecked", "CI", "Checked", "CI", "Overhead"},
	}
	for _, b := range hpcc.Benchmarks() {
		base, err := measureDistributed(o, b, false)
		if err != nil {
			return nil, fmt.Errorf("%s unchecked: %w", b.Name, err)
		}
		checked, err := measureDistributed(o, b, true)
		if err != nil {
			return nil, fmt.Errorf("%s checked: %w", b.Name, err)
		}
		t.Rows = append(t.Rows, []string{
			b.Name,
			Dur(base.Mean()), Dur(base.CI95()),
			Dur(checked.Mean()), Dur(checked.CI95()),
			Pct(Overhead(checked, base)),
		})
	}
	t.Fprint(o.Out)
	return t, nil
}

func measureDistributed(o Options, b hpcc.Benchmark, verified bool) (Measurement, error) {
	var m Measurement
	for i := 0; i <= o.Samples; i++ {
		srv, err := store.NewServer("127.0.0.1:0")
		if err != nil {
			return m, err
		}
		sites := make([]*dist.Site, o.Sites)
		for j := range sites {
			opts := []dist.Option{dist.WithPeriod(dist.DefaultPeriod)}
			if !verified {
				opts = append(opts, dist.WithVerifierMode(core.ModeOff))
			}
			sites[j] = dist.NewSite(j+1, srv.Addr(), opts...)
			if verified {
				sites[j].Start()
			}
		}
		start := time.Now()
		err = b.Run(sites, hpcc.Config{TasksPerSite: o.TasksPerSite, Class: o.Class})
		elapsed := time.Since(start)
		for _, s := range sites {
			s.Close()
		}
		srv.Close()
		if err != nil {
			return m, err
		}
		if i == 0 {
			continue
		}
		m.Samples = append(m.Samples, elapsed)
	}
	return m, nil
}

// RunFig8 regenerates Figure 8: execution time of the course programs
// under deadlock AVOIDANCE against the unchecked baseline, in one checked
// column where the paper has one per graph model.
func RunFig8(o Options) (*Table, error) {
	return courseFigure(o, core.ModeAvoid,
		"Figure 8: course programs, avoidance mode (mean ± 95% CI; the targeted gate has no model to choose)")
}

// RunFig9 regenerates Figure 9 the same way under deadlock DETECTION: the
// detector searches the index and has no model to choose either.
func RunFig9(o Options) (*Table, error) {
	return courseFigure(o, core.ModeDetect,
		"Figure 9: course programs, detection mode (mean ± 95% CI; the per-model comparison is Table 3)")
}

func courseFigure(o Options, mode core.Mode, title string) (*Table, error) {
	o.defaults()
	t := &Table{
		Title:  title,
		Header: []string{"Benchmark", "Unchecked", "CI", "Checked", "CI"},
	}
	for _, p := range course.Programs() {
		row := []string{p.Name}
		for _, m := range []core.Mode{core.ModeOff, mode} {
			meas, err := MeasureLocal(o.Samples, m, o.DetectPeriod,
				func(v *core.Verifier) error {
					_, err := p.Run(v, course.Config{Size: o.CourseSize})
					return err
				})
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", p.Name, m, err)
			}
			row = append(row, Dur(meas.Mean()), Dur(meas.CI95()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Fprint(o.Out)
	return t, nil
}

// Mechanism is one answer to "deadlocked now?" that Table 3 times per
// check: a snapshot, a graph built under Model and Tarjan's search — the
// in-process verifier's full check until the index replaced it — or, for
// Index, the index's one-pass search that every verdict path runs.
type Mechanism struct {
	Name  string
	Model deps.Model
	Index bool
}

// Mechanisms lists the compared mechanisms in Table 3's order.
var Mechanisms = []Mechanism{
	{Name: "Auto", Model: deps.ModelAuto},
	{Name: "SG", Model: deps.ModelSG},
	{Name: "WFG", Model: deps.ModelWFG},
	{Name: "Index", Index: true},
}

// CheckCost replays muts, the mutations of a recorded run, into a state —
// with m's check after every mutation, and with none, each as often as it
// takes to run at least minChecks — and returns the difference per check
// and the mean edges per check: those the graph was built with, or those
// the index search examined.
func (m Mechanism) CheckCost(muts []trace.Event) (time.Duration, float64) {
	const minChecks = 1 << 14
	var bd deps.Builder
	var buf []deps.Blocked
	var sc deps.CycleScratch
	n := max(1, len(muts))
	reps := max(1, minChecks/n)
	pass := func(check bool) (time.Duration, int) {
		st, edges := deps.NewState(), 0
		start := time.Now()
		for range reps {
			for i := range muts {
				muts[i].Apply(st)
				switch {
				case !check:
				case m.Index:
					_, e := st.FindCycle(&sc)
					edges += e
				default:
					buf = st.SnapshotInto(buf)
					a := bd.Build(m.Model, buf)
					a.FindDeadlock(buf)
					edges += a.Graph.NumEdges()
				}
			}
		}
		return time.Since(start), edges
	}
	base, _ := pass(false)
	checked, edges := pass(true)
	checks := time.Duration(reps * n)
	return max(0, checked-base) / checks, float64(edges) / float64(checks)
}

// RunTable3 regenerates Table 3, the paper's §5.1 comparison: per course
// program, the mean edges and time of one full check under each graph
// model and with the index search, over every state of one recorded run
// (samples + 1 interleaved passes per mechanism, the first discarded).
func RunTable3(o Options) (*Table, error) {
	o.defaults()
	t := &Table{
		Title:  "Table 3: edges and time per full check, per graph model and for the index search",
		Header: []string{"Benchmark", "Checks"},
	}
	for _, unit := range []string{" edges", " ns ± CI"} {
		for _, m := range Mechanisms {
			t.Header = append(t.Header, m.Name+unit)
		}
	}
	for _, p := range course.Programs() {
		muts, err := p.Record(core.ModeObserve, o.CourseSize)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		times := make([]Measurement, len(Mechanisms))
		edges := make([]string, len(Mechanisms))
		for lap := 0; lap <= o.Samples; lap++ {
			for i, m := range Mechanisms {
				d, e := m.CheckCost(muts)
				if lap > 0 {
					times[i].Samples = append(times[i].Samples, d)
				}
				edges[i] = fmt.Sprintf("%.1f", e)
			}
		}
		row := append([]string{p.Name, fmt.Sprint(len(muts))}, edges...)
		for _, m := range times {
			row = append(row, fmt.Sprintf("%d ± %d", m.Mean().Nanoseconds(), m.CI95().Nanoseconds()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Fprint(o.Out)
	return t, nil
}

// Experiments maps experiment names (as used by armus-bench -exp) to
// runners that print their tables to o.Out.
func Experiments() map[string]func(Options) error {
	return map[string]func(Options) error{
		"table1": printing(RunTable1),
		"table2": printing(RunTable2),
		"fig6":   printing(RunFig6),
		"fig7":   printing(RunFig7),
		"fig8":   printing(RunFig8),
		"fig9":   printing(RunFig9),
		"table3": printing(RunTable3),
	}
}

// printing drops a Run* function's returned tables (tests read them; the
// driver only needs what was printed to o.Out).
func printing[T any](run func(Options) (T, error)) func(Options) error {
	return func(o Options) error {
		_, err := run(o)
		return err
	}
}

// ExperimentNames lists the experiments in the paper's order.
func ExperimentNames() []string {
	return []string{"table1", "table2", "fig6", "fig7", "fig8", "fig9", "table3"}
}
