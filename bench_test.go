// Benchmarks regenerating the paper's evaluation (§6): one benchmark per
// table and figure, plus ablations for the design decisions in DESIGN.md.
//
//	go test -bench=. -benchmem
//
// Sub-benchmark names encode the experiment axis (kernel / mode / model /
// task count), so who-wins comparisons can be read straight off the
// ns/op column; cmd/armus-bench produces the paper-shaped tables instead.
package armus_test

import (
	"fmt"
	"testing"
	"time"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/dist"
	"armus/internal/harness"
	"armus/internal/store"
	"armus/internal/workloads/course"
	"armus/internal/workloads/hpcc"
	"armus/internal/workloads/npb"
)

const benchClass = 1 // problem-size class for benchmark runs

func benchKernel(b *testing.B, k npb.Kernel, mode core.Mode, tasks int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := core.New(core.WithMode(mode))
		if _, err := k.Run(v, npb.Config{Tasks: tasks, Class: benchClass}); err != nil {
			b.Fatal(err)
		}
		v.Close()
	}
}

// BenchmarkTable1Detection: NPB kernels under detection mode (compare
// against BenchmarkFig6Unchecked for the relative overhead of Table 1).
func BenchmarkTable1Detection(b *testing.B) {
	for _, k := range npb.Kernels() {
		for _, tasks := range []int{2, 8, 64} {
			b.Run(fmt.Sprintf("%s/tasks=%d", k.Name, tasks), func(b *testing.B) {
				benchKernel(b, k, core.ModeDetect, tasks)
			})
		}
	}
}

// BenchmarkTable2Avoidance: NPB kernels under avoidance mode (Table 2).
func BenchmarkTable2Avoidance(b *testing.B) {
	for _, k := range npb.Kernels() {
		for _, tasks := range []int{2, 8, 64} {
			b.Run(fmt.Sprintf("%s/tasks=%d", k.Name, tasks), func(b *testing.B) {
				benchKernel(b, k, core.ModeAvoid, tasks)
			})
		}
	}
}

// BenchmarkFig6Unchecked: the unchecked baselines of Figure 6 (and the
// denominators of Tables 1-2).
func BenchmarkFig6Unchecked(b *testing.B) {
	for _, k := range npb.Kernels() {
		for _, tasks := range []int{2, 8, 64} {
			b.Run(fmt.Sprintf("%s/tasks=%d", k.Name, tasks), func(b *testing.B) {
				benchKernel(b, k, core.ModeOff, tasks)
			})
		}
	}
}

// BenchmarkFig7Distributed: the distributed benchmarks with and without
// distributed detection (Figure 7).
func BenchmarkFig7Distributed(b *testing.B) {
	for _, bench := range hpcc.Benchmarks() {
		for _, checked := range []bool{false, true} {
			label := "unchecked"
			if checked {
				label = "checked"
			}
			b.Run(bench.Name+"/"+label, func(b *testing.B) {
				srv, err := store.NewServer("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				const nSites = 2
				sites := make([]*dist.Site, nSites)
				for i := range sites {
					opts := []dist.Option{dist.WithPeriod(dist.DefaultPeriod)}
					if !checked {
						opts = append(opts, dist.WithVerifierMode(core.ModeOff))
					}
					sites[i] = dist.NewSite(i+1, srv.Addr(), opts...)
					if checked {
						sites[i].Start()
					}
					defer sites[i].Close()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := bench.Run(sites, hpcc.Config{TasksPerSite: 2, Class: benchClass}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func benchCourse(b *testing.B, p course.Program, mode core.Mode) {
	b.Helper()
	b.ReportAllocs()
	var edges float64
	for i := 0; i < b.N; i++ {
		v := core.New(core.WithMode(mode))
		if _, err := p.Run(v, course.Config{Size: 32}); err != nil {
			b.Fatal(err)
		}
		edges = v.Stats().AvgEdges()
		v.Close()
	}
	b.ReportMetric(edges, "edges/check")
}

// BenchmarkFig8Fig9Course: course programs unchecked, under avoidance
// (Figure 8) and under detection (Figure 9). Neither checker has a graph
// model to choose; the per-model comparison is BenchmarkTable3Checks.
func BenchmarkFig8Fig9Course(b *testing.B) {
	for _, p := range course.Programs() {
		for _, mode := range []core.Mode{core.ModeOff, core.ModeAvoid, core.ModeDetect} {
			b.Run(p.Name+"/"+mode.String(), func(b *testing.B) {
				benchCourse(b, p, mode)
			})
		}
	}
}

// BenchmarkTable3Checks is Table 3 per check: each course program's run is
// recorded once, and every state it passes through is checked under each
// graph model and with the index search. ns/check leaves out replaying the
// mutations themselves.
func BenchmarkTable3Checks(b *testing.B) {
	for _, p := range course.Programs() {
		muts, err := p.Record(core.ModeObserve, 32)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range harness.Mechanisms {
			b.Run(p.Name+"/"+m.Name, func(b *testing.B) {
				var total time.Duration
				var edges float64
				for i := 0; i < b.N; i++ {
					var d time.Duration
					d, edges = m.CheckCost(muts)
					total += d
				}
				b.ReportMetric(float64(total)/float64(b.N), "ns/check")
				b.ReportMetric(edges, "edges/check")
			})
		}
	}
}

// BenchmarkTable3EdgeCounts measures pure analysis cost and edge counts on
// the two extreme snapshot shapes of Table 3 (PS-like: tasks >> events;
// FR-like: events >> tasks) and on a deadlock-free dependency chain, for
// each graph model with a warm builder and for the index search.
func BenchmarkTable3EdgeCounts(b *testing.B) {
	shapes := map[string][]deps.Blocked{
		"ps-like":  spmdSnapshot(64, 1),
		"fr-like":  forkJoinSnapshot(8, 64),
		"chain-64": chainSnapshot(64),
	}
	for name, snap := range shapes {
		for _, mc := range []struct {
			name  string
			model deps.Model
		}{{"auto", deps.ModelAuto}, {"sg", deps.ModelSG}, {"wfg", deps.ModelWFG}} {
			b.Run(name+"/"+mc.name, func(b *testing.B) {
				bd := deps.NewBuilder()
				b.ReportAllocs()
				var edges int
				for i := 0; i < b.N; i++ {
					a := bd.Build(mc.model, snap)
					edges = a.Graph.NumEdges()
					if a.FindDeadlock(snap) != nil {
						b.Fatal("unexpected deadlock in benchmark snapshot")
					}
				}
				b.ReportMetric(float64(edges), "edges")
			})
		}
		b.Run(name+"/index", func(b *testing.B) {
			st := deps.NewState()
			for _, s := range snap {
				st.SetBlocked(s)
			}
			var sc deps.CycleScratch
			b.ReportAllocs()
			b.ResetTimer()
			var edges int
			for i := 0; i < b.N; i++ {
				var cyc *deps.Cycle
				if cyc, edges = st.FindCycle(&sc); cyc != nil {
					b.Fatal("unexpected deadlock in benchmark snapshot")
				}
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// spmdSnapshot: tasks blocked on a handful of shared barriers.
func spmdSnapshot(tasks, phasers int) []deps.Blocked {
	snap := make([]deps.Blocked, 0, tasks)
	for i := 0; i < tasks; i++ {
		b := deps.Blocked{Task: deps.TaskID(i)}
		q := deps.PhaserID(i % phasers)
		b.WaitsFor = []deps.Resource{{Phaser: q, Phase: 1}}
		for p := 0; p < phasers; p++ {
			b.Regs = append(b.Regs, deps.Reg{Phaser: deps.PhaserID(p), Phase: 1})
		}
		snap = append(snap, b)
	}
	return snap
}

// denseSnapshot: every task registered at phase 0 with every phaser while
// awaiting its own phaser's phase 1 — the SG becomes quadratic in the
// event count, the shape that must trigger the WFG fallback.
func denseSnapshot(n int) []deps.Blocked {
	snap := make([]deps.Blocked, 0, n)
	for i := 0; i < n; i++ {
		b := deps.Blocked{
			Task:     deps.TaskID(i),
			WaitsFor: []deps.Resource{{Phaser: deps.PhaserID(i), Phase: 1}},
		}
		for q := 0; q < n; q++ {
			ph := int64(0)
			if q == i {
				ph = 1
			}
			b.Regs = append(b.Regs, deps.Reg{Phaser: deps.PhaserID(q), Phase: ph})
		}
		snap = append(snap, b)
	}
	return snap
}

// chainSnapshot: a deadlock-free dependency chain — task i awaits phaser
// i+1 while it lags on phaser i — whose WFG is one path of n-1 edges.
func chainSnapshot(n int) []deps.Blocked {
	snap := make([]deps.Blocked, 0, n)
	for i := 0; i < n; i++ {
		snap = append(snap, deps.Blocked{
			Task:     deps.TaskID(i),
			WaitsFor: []deps.Resource{{Phaser: deps.PhaserID(i + 1), Phase: 1}},
			Regs:     []deps.Reg{{Phaser: deps.PhaserID(i), Phase: 0}},
		})
	}
	return snap
}

// forkJoinSnapshot: few tasks, many private barriers each (futures).
func forkJoinSnapshot(tasks, phasersPerTask int) []deps.Blocked {
	var snap []deps.Blocked
	for i := 0; i < tasks; i++ {
		b := deps.Blocked{Task: deps.TaskID(i)}
		base := deps.PhaserID(i * phasersPerTask)
		b.WaitsFor = []deps.Resource{{Phaser: base, Phase: 1}}
		for p := 0; p < phasersPerTask; p++ {
			b.Regs = append(b.Regs, deps.Reg{Phaser: base + deps.PhaserID(p), Phase: 1})
		}
		snap = append(snap, b)
	}
	return snap
}

// BenchmarkAblationThreshold sweeps the adaptive bail-out threshold
// (DESIGN.md: "SG edges > k x tasks processed"). The paper's k=2 must keep
// the SG on the SPMD shape (tiny SG) and fall back to the WFG on the
// dense shape (every event impedes every other); the reported model metric
// shows where each k lands.
func BenchmarkAblationThreshold(b *testing.B) {
	shapes := map[string][]deps.Blocked{
		"ps-like":    spmdSnapshot(64, 1),
		"fr-like":    forkJoinSnapshot(8, 64),
		"dense-deps": denseSnapshot(24),
	}
	for name, snap := range shapes {
		for _, k := range []int{1, 2, 4, 8, 1 << 20} {
			b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
				b.ReportAllocs()
				var model deps.Model
				for i := 0; i < b.N; i++ {
					a := deps.BuildAdaptive(snap, k)
					model = a.Model
				}
				b.ReportMetric(float64(model), "model(1=wfg,2=sg)")
			})
		}
	}
}

// BenchmarkAblationEdgesVsMembership contrasts the event-based blocked
// status (the paper's contribution: impedes derived from each task's OWN
// registration vector, built with a per-phaser index) against a
// membership-scanning construction that, for every awaited event, scans
// every blocked task's whole vector — the O(T x R) bookkeeping that naive
// extensions of lock-based techniques need.
func BenchmarkAblationEdgesVsMembership(b *testing.B) {
	snap := spmdSnapshot(64, 4)
	b.Run("event-based-indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			deps.BuildWFG(snap)
		}
	})
	b.Run("membership-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			naiveWFGEdges(snap)
		}
	})
}

// naiveWFGEdges builds WFG edges without the per-phaser index.
func naiveWFGEdges(snap []deps.Blocked) int {
	edges := 0
	for _, b1 := range snap {
		for _, r := range b1.WaitsFor {
			for _, b2 := range snap {
				for _, reg := range b2.Regs {
					if reg.Phaser == r.Phaser && reg.Phase < r.Phase {
						edges++
					}
				}
			}
		}
	}
	return edges
}

// BenchmarkPhaserOps: microbenchmarks of the runtime primitives per mode.
func BenchmarkPhaserOps(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeOff, core.ModeDetect, core.ModeAvoid} {
		b.Run("advance-2tasks/"+mode.String(), func(b *testing.B) {
			v := core.New(core.WithMode(mode))
			defer v.Close()
			main := v.NewTask("main")
			p := v.NewPhaser(main)
			other := v.NewTask("other")
			if err := p.Register(main, other); err != nil {
				b.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < b.N; i++ {
					if err := p.Advance(other); err != nil {
						b.Error(err)
						return
					}
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Advance(main); err != nil {
					b.Fatal(err)
				}
			}
			<-done
		})
	}
}
