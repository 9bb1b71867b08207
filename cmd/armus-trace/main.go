// Command armus-trace records, replays and inspects Armus verifier traces
// (internal/trace): the permanent, diffable artifacts behind the
// testdata/corpus regression suite and the repro path of every sim-harness
// divergence.
//
// Record a workload under a live verifier:
//
//	armus-trace record -npb CG -tasks 4 -class 1 -o cg.trace
//	armus-trace record -course SE -size 16 -mode detect -o se.trace
//	armus-trace record -hpcc JACOBI -sites 3 -o jacobi.trace
//	armus-trace record -sim 31 -mode avoid -o seed31.trace
//
// Replay a trace through one pipeline, or through all three with
// verdict-for-verdict equivalence asserted (exits non-zero on any
// divergence, non-reproducing rejection, or corrupt file):
//
//	armus-trace replay -pipeline all testdata/corpus/*.trace
//
// Inspect and summarise:
//
//	armus-trace inspect seed31.trace
//	armus-trace stat testdata/corpus/*.trace
//
// Query a server's durable trace archive (armus-serve -segment-dir) and
// export a session's archived history back into a replayable trace:
//
//	armus-trace query -dir /var/lib/armus/segments -session app -verdicts
//	armus-trace export -dir /var/lib/armus/segments -session app -o app.trace
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"armus/internal/core"
	"armus/internal/dist"
	"armus/internal/sim"
	"armus/internal/store"
	"armus/internal/trace"
	"armus/internal/trace/replay"
	"armus/internal/workloads/course"
	"armus/internal/workloads/hpcc"
	"armus/internal/workloads/npb"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "stat":
		err = cmdStat(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "armus-trace: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "armus-trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: armus-trace <record|replay|inspect|stat|query|export> [flags] [file...]
  record  -o FILE (-npb K | -course P | -hpcc B | -sim SEED) [-mode M] [shape flags]
  replay  [-pipeline avoid|detect|dist|all] [-sites N] [-v] FILE...
  inspect [-n MAX] FILE
  stat    FILE...
  query   -dir DIR [-session S] [-since T] [-until T] [-verdicts] [-sessions] [-quarantine]
  export  -dir DIR -session S -o FILE`)
}

func parseMode(s string) (core.Mode, error) {
	switch s {
	case "detect":
		return core.ModeDetect, nil
	case "avoid":
		return core.ModeAvoid, nil
	case "observe":
		return core.ModeObserve, nil
	default:
		return 0, fmt.Errorf("unknown -mode %q (detect, avoid, observe)", s)
	}
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		out     = fs.String("o", "", "output trace file (required)")
		label   = fs.String("label", "", "trace label (default: derived from the source)")
		mode    = fs.String("mode", "detect", "verifier mode: detect, avoid, or observe")
		period  = fs.Duration("period", core.DefaultPeriod, "detection scan period")
		npbK    = fs.String("npb", "", "record an NPB kernel (BT, CG, FT, MG, RT, SP)")
		courseP = fs.String("course", "", "record a course program (SE, FI, FR, BFS, PS)")
		hpccB   = fs.String("hpcc", "", "record an hpcc distributed benchmark (site 1's trace)")
		simSeed = fs.Uint64("sim", 0, "record a sim schedule by seed (avoid/detect modes)")
		tasks   = fs.Int("tasks", 4, "tasks (npb team size / sim program tasks)")
		class   = fs.Int("class", 1, "problem-size class (npb, hpcc)")
		size    = fs.Int("size", 16, "course program size")
		sites   = fs.Int("sites", 3, "hpcc cluster size")
		perSite = fs.Int("tasks-per-site", 4, "hpcc tasks per site")
		phasers = fs.Int("phasers", 3, "sim program phasers")
		ops     = fs.Int("ops", 10, "sim operations per task")
	)
	fs.Parse(args)
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *out == "" {
		return fmt.Errorf("record: -o is required")
	}
	m, err := parseMode(*mode)
	if err != nil {
		return err
	}
	sources := 0
	for _, s := range []bool{*npbK != "", *courseP != "", *hpccB != "", set["sim"]} {
		if s {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("record: exactly one of -npb, -course, -hpcc, -sim is required")
	}
	if *hpccB != "" && (set["mode"] || set["period"]) {
		// hpcc traces are site 1's local verifier, which the distributed
		// layer fixes in observe mode (§5.2: avoidance is unavailable
		// distributed, and the period that matters is the site's
		// publish/check round, not a local scan).
		return fmt.Errorf("record: -mode/-period do not apply to -hpcc (site verifiers run in observe mode)")
	}

	var tr *trace.Trace
	switch {
	case *npbK != "":
		tr, err = recordLocal(fmt.Sprintf("npb %s (%d tasks, class %d, %s)", *npbK, *tasks, *class, m),
			m, *period, func(v *core.Verifier) error {
				for _, k := range npb.Kernels() {
					if k.Name == *npbK {
						_, err := k.Run(v, npb.Config{Tasks: *tasks, Class: *class})
						return err
					}
				}
				return fmt.Errorf("unknown NPB kernel %q", *npbK)
			})
	case *courseP != "":
		tr, err = recordLocal(fmt.Sprintf("course %s (size %d, %s)", *courseP, *size, m),
			m, *period, func(v *core.Verifier) error {
				for _, p := range course.Programs() {
					if p.Name == *courseP {
						_, err := p.Run(v, course.Config{Size: *size})
						return err
					}
				}
				return fmt.Errorf("unknown course program %q", *courseP)
			})
	case *hpccB != "":
		tr, err = recordHPCC(*hpccB, *sites, *perSite, *class)
	default:
		var rm sim.RunMode
		switch m {
		case core.ModeAvoid:
			rm = sim.RunAvoid
		case core.ModeDetect:
			rm = sim.RunDetect
		default:
			return fmt.Errorf("record -sim supports -mode avoid or detect")
		}
		var r *sim.Result
		r, err = sim.Run(sim.Config{
			Seed: *simSeed, Tasks: *tasks, Phasers: *phasers, Ops: *ops,
		}, rm)
		if err == nil {
			tr = r.Trace
		}
	}
	if err != nil {
		return err
	}
	if *label != "" {
		tr.Label = *label
	}
	if err := trace.WriteFile(*out, tr); err != nil {
		return err
	}
	fmt.Printf("armus-trace: recorded %d events (%d mutations) -> %s\n",
		len(tr.Events), tr.Mutations(), *out)
	return nil
}

// recordLocal runs a workload under a traced local verifier.
func recordLocal(label string, m core.Mode, period time.Duration,
	run func(v *core.Verifier) error) (*trace.Trace, error) {
	rec := trace.NewRecorder()
	rec.SetLabel(label)
	v := core.New(core.WithMode(m), core.WithPeriod(period), core.WithTraceRecorder(rec))
	err := run(v)
	v.Close()
	if err != nil {
		return nil, err
	}
	return rec.Trace(), nil
}

// recordHPCC runs a distributed benchmark on a real store-backed cluster,
// tracing site 1's local verifier.
func recordHPCC(name string, sites, perSite, class int) (*trace.Trace, error) {
	var bench *hpcc.Benchmark
	for _, b := range hpcc.Benchmarks() {
		if b.Name == name {
			b := b
			bench = &b
			break
		}
	}
	if bench == nil {
		return nil, fmt.Errorf("unknown hpcc benchmark %q", name)
	}
	srv, err := store.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	rec := trace.NewRecorder()
	rec.SetLabel(fmt.Sprintf("hpcc %s (site 1 of %d, %d tasks/site, class %d)",
		name, sites, perSite, class))
	cluster := make([]*dist.Site, sites)
	for i := range cluster {
		opts := []dist.Option{}
		if i == 0 {
			opts = append(opts, dist.WithVerifierTrace(rec))
		}
		cluster[i] = dist.NewSite(i+1, srv.Addr(), opts...)
		cluster[i].Start()
	}
	err = bench.Run(cluster, hpcc.Config{TasksPerSite: perSite, Class: class})
	for _, s := range cluster {
		s.Close()
	}
	if err != nil {
		return nil, err
	}
	return rec.Trace(), nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var (
		pipeline = fs.String("pipeline", "all", "pipeline: avoid, detect, dist, or all (asserts equivalence)")
		sites    = fs.Int("sites", 3, "sites for the dist pipeline")
		verbose  = fs.Bool("v", false, "print the per-mutation verdict sequence")
	)
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("replay: no trace files given")
	}
	pipelines, err := replay.Parse(*pipeline)
	if err != nil {
		return err
	}
	o := replay.Options{Sites: *sites}
	for _, path := range fs.Args() {
		tr, err := trace.ReadFile(path)
		if err != nil {
			return err
		}
		results, err := replay.VerifyAll(tr, o, pipelines...)
		if err != nil {
			return fmt.Errorf("%s (%q): %w", path, tr.Label, err)
		}
		for _, r := range results {
			fmt.Printf("%s %-6s events=%d mutations=%d deadlocked-steps=%d rejections=%d reports=%d final=%v %.0f events/s\n",
				path, r.Pipeline, r.Events, r.Mutations, r.DeadlockSteps,
				r.Rejections, r.Reports, r.Deadlocked, r.EventsPerSec())
			if *verbose {
				fmt.Printf("  verdicts: %v\n", r.Verdicts)
			}
		}
		if len(results) > 1 {
			fmt.Printf("%s: %d pipelines agree verdict-for-verdict over %d mutations\n",
				path, len(results), results[0].Mutations)
		}
	}
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	max := fs.Int("n", 0, "print at most n events (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("inspect: exactly one trace file")
	}
	path := fs.Arg(0)
	tr, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: label=%q mode=%v events=%d mutations=%d\n",
		path, tr.Label, core.Mode(tr.Mode), len(tr.Events), tr.Mutations())
	for i, e := range tr.Events {
		if *max > 0 && i >= *max {
			fmt.Printf("  ... %d more\n", len(tr.Events)-i)
			break
		}
		fmt.Printf("  %5d  %v\n", i, e)
	}
	return nil
}

func cmdStat(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("stat: no trace files given")
	}
	for _, path := range fs.Args() {
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		tr, err := trace.ReadFile(path)
		if err != nil {
			return err
		}
		kinds := map[trace.Kind]int{}
		tasks := map[int64]bool{}
		phasers := map[int64]bool{}
		for _, e := range tr.Events {
			kinds[e.Kind]++
			if e.Task != 0 {
				tasks[int64(e.Task)] = true
			}
			if e.Phaser != 0 {
				phasers[int64(e.Phaser)] = true
			}
			for _, r := range e.Status.Regs {
				phasers[int64(r.Phaser)] = true
			}
		}
		fmt.Printf("%s: %d bytes, label=%q, mode=%v\n", path, info.Size(), tr.Label, core.Mode(tr.Mode))
		fmt.Printf("  events=%d (register=%d arrive=%d drop=%d block=%d unblock=%d verdict=%d) tasks=%d phasers=%d\n",
			len(tr.Events), kinds[trace.KindRegister], kinds[trace.KindArrive], kinds[trace.KindDrop],
			kinds[trace.KindBlock], kinds[trace.KindUnblock], kinds[trace.KindVerdict],
			len(tasks), len(phasers))
	}
	return nil
}
