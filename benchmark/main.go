// Command benchmark is the repository's benchmark: four seeded workloads
// over the armus stack, measured from outside. BENCHMARK.json at the root of
// the checkout names the command, the workloads and every metric; README.md
// in this directory explains them.
//
// One run, as the driver starts it (through run.sh, which builds first):
//
//	benchmark --workload serve-gate --seed 1 --seconds 20 --trace 0
//
// measures one workload and prints the result as one JSON object on the
// last line of standard output. Without --workload every workload is run in
// a process of its own, untraced and traced, and the results are collected
// in benchmark/out/result.json; -compare a.json b.json sets two such files
// against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run (all of them, each in its own process, when empty)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the measuring window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "0: tracing off, end-to-end metrics; 1: traced run, per-layer metrics")
	root := flag.String("root", ".", "the checkout (the directory that holds BENCHMARK.json)")
	bin := flag.String("bin", ".bench_build/bin", "directory of the armus-serve and armus-store binaries")
	compare := flag.Bool("compare", false, "compare two result files (arguments: a.json b.json) against the bounds")
	echo := flag.Bool("echo", false, "run as the echo peer (arguments: network address); started by the benchmark itself")
	flag.Parse()
	if err := run(o, trace, *root, *bin, *compare, *echo); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, trace int, root, bin string, compare, echo bool) error {
	if echo {
		if flag.NArg() != 2 {
			return fmt.Errorf("-echo takes a network and an address")
		}
		return echoMain(flag.Arg(0), flag.Arg(1))
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	if compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(sp, flag.Arg(0), flag.Arg(1))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace is 0 or 1, not %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	// Subprocesses start in their run directory, so what they are started
	// from must not depend on the working directory.
	e := env{root: root, out: filepath.Join(root, "benchmark", "out")}
	if e.bin, err = filepath.Abs(bin); err != nil {
		return err
	}
	if e.self, err = os.Executable(); err != nil {
		return err
	}
	if o.workload == "" {
		return runAll(e, sp, o)
	}
	if err := pinSelf(e.self); err != nil {
		return fmt.Errorf("binding to one CPU: %w", err)
	}
	res, err := runOne(e, sp, o)
	if err != nil {
		return err
	}
	printResult(o, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their output check", o.workload, res.Failed, res.Attempted)
	}
	return nil
}
