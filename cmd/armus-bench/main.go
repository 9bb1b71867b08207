// Command armus-bench regenerates the paper's evaluation (§6): Tables 1-3
// and Figures 6-9, printed as aligned text. Each experiment prints the same
// rows/series the paper reports; absolute times differ from the paper's
// 64-core testbed but the shapes (who wins, by roughly what factor, where
// crossovers fall) hold.
//
// Usage:
//
//	armus-bench -exp all
//	armus-bench -exp table1 -samples 10 -class 2 -tasks 2,4,8,16
//	armus-bench -exp fig7 -sites 8 -tasks-per-site 8
//
// It is not a performance gate: the service and its layers are measured by
// the repository benchmark (benchmark/README.md, BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"armus/internal/harness"
)

func main() {
	var (
		exp          = flag.String("exp", "all", "experiment: "+strings.Join(harness.ExperimentNames(), ", ")+" or all")
		samples      = flag.Int("samples", 5, "samples per configuration (paper: 30)")
		class        = flag.Int("class", 2, "problem-size class for the NPB kernels")
		tasks        = flag.String("tasks", "2,4,8,16,32,64", "comma-separated task counts for tables 1-2 / figure 6")
		courseSize   = flag.Int("course-size", 48, "size of the course (SE FI FR BFS PS) programs")
		sites        = flag.Int("sites", 4, "number of sites for figure 7")
		tasksPerSite = flag.Int("tasks-per-site", 4, "tasks per site for figure 7")
		period       = flag.Duration("period", 100*time.Millisecond, "detection scan period")
	)
	flag.Parse()

	counts, err := parseCounts(*tasks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "armus-bench:", err)
		os.Exit(2)
	}
	o := harness.Options{
		Out:          os.Stdout,
		Samples:      *samples,
		Class:        *class,
		TaskCounts:   counts,
		CourseSize:   *courseSize,
		Sites:        *sites,
		TasksPerSite: *tasksPerSite,
		DetectPeriod: *period,
	}

	experiments := harness.Experiments()
	names := []string{*exp}
	if *exp == "all" {
		names = harness.ExperimentNames()
	}
	for _, name := range names {
		run, ok := experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "armus-bench: unknown experiment %q (have: %s)\n",
				name, strings.Join(harness.ExperimentNames(), ", "))
			os.Exit(2)
		}
		fmt.Printf("== %s ==\n", name)
		start := time.Now()
		if err := run(o); err != nil {
			fmt.Fprintf(os.Stderr, "armus-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad task count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no task counts given")
	}
	return out, nil
}
