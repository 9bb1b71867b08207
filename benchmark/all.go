package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// report is benchmark/out/result.json: every workload's two runs, and
// enough about the host to tell a noisy one from a regression. NumCPU and
// GoMaxProcs are this collecting process's; every run binds itself to one
// CPU (affinity.go).
type report struct {
	Seed       int64                         `json:"seed"`
	Seconds    float64                       `json:"seconds"`
	Started    string                        `json:"started"`
	Revision   string                        `json:"git_revision"`
	GoVersion  string                        `json:"go_version"`
	NumCPU     int                           `json:"nproc"`
	GoMaxProcs int                           `json:"gomaxprocs"`
	LoadAvg1   [2]float64                    `json:"loadavg1_start_end"`
	Workloads  map[string]map[string]*result `json:"workloads"` // workload → "end_to_end" | "per_layer"
}

// runAll runs every workload of the spec, untraced then traced, each run
// in a process of its own, so CPU time, peak memory and the collector's
// state belong to one workload. This is the form for people; the driver
// calls single runs itself.
func runAll(e env, sp *spec, o options) error {
	rep := report{
		Seed: o.seed, Seconds: o.seconds, Started: time.Now().UTC().Format(time.RFC3339),
		Revision: gitRevision(e.root), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Workloads: map[string]map[string]*result{},
	}
	rep.LoadAvg1[0] = loadAvg1()
	var failed []string
	for _, wl := range sp.Workloads {
		rep.Workloads[wl.Name] = map[string]*result{}
		for _, kind := range []string{"end_to_end", "per_layer"} {
			traced := "0"
			if kind == "per_layer" {
				traced = "1"
			}
			fmt.Printf("== %s, %s (--trace %s)\n", wl.Name, kind, traced)
			cmd := exec.Command(e.self, "-root", e.root, "-bin", e.bin, "--workload", wl.Name,
				"--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds), "--trace", traced)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			runErr := cmd.Run()
			res, text := splitResult(out.Bytes())
			os.Stdout.Write(text)
			if runErr != nil || res == nil {
				failed = append(failed, fmt.Sprintf("%s/%s", wl.Name, kind))
				continue
			}
			rep.Workloads[wl.Name][kind] = res
		}
	}
	rep.LoadAvg1[1] = loadAvg1()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.out, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if len(failed) > 0 {
		return fmt.Errorf("runs that failed or were incorrect: %v", failed)
	}
	return nil
}

// splitResult separates a run's output into the result line (the last one)
// and the text before it.
func splitResult(out []byte) (*result, []byte) {
	trimmed := bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(trimmed, '\n')
	var res result
	if err := json.Unmarshal(trimmed[i+1:], &res); err != nil || res.Metrics == nil {
		return nil, out
	}
	return &res, trimmed[:i+1]
}

// gitRevision reads the checked-out commit without running git: the
// driver's checkout is not a repository, and then there is none to report.
func gitRevision(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if f, err := os.Open(filepath.Join(root, ".git", "packed-refs")); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if hash, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// printResult lists every metric of a run by name, with its unit.
func printResult(o options, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d seconds=%v trace=%v: %d operations checked, %d failed\n",
		o.workload, o.seed, o.seconds, o.trace, res.Attempted, res.Failed)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Printf("%-34s %16.4f %s\n", n, v.Value, v.Unit)
	}
}

// compareFiles sets result file b against result file a: for every
// workload and end-to-end metric, by how much b is worse than a, as a share
// of a, against the metric's bound. It fails when a bound is exceeded or b
// has failed operations.
func compareFiles(sp *spec, pathA, pathB string) error {
	load := func(path string) (*report, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s (seed %d, %s, load %.2f)\nb: %s (seed %d, %s, load %.2f)\n",
		pathA, a.Seed, a.Revision, a.LoadAvg1[1], pathB, b.Seed, b.Revision, b.LoadAvg1[1])
	fmt.Printf("%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	var over []string
	for _, wl := range sp.Workloads {
		ra, rb := a.Workloads[wl.Name]["end_to_end"], b.Workloads[wl.Name]["end_to_end"]
		if ra == nil || rb == nil {
			over = append(over, wl.Name+": no end-to-end result in one of the files")
			continue
		}
		if rb.Failed > 0 {
			over = append(over, fmt.Sprintf("%s: %d failed operations in b", wl.Name, rb.Failed))
		}
		for _, d := range sp.EndToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > d.Bound {
				mark = "  OVER"
				over = append(over, fmt.Sprintf("%s %s: worse by %.1f%%, bound %.0f%%", wl.Name, d.Name, 100*worse, 100*d.Bound))
			}
			fmt.Printf("%-14s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", wl.Name, d.Name, va, vb, 100*worse, 100*d.Bound, mark)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("b is worse than a beyond the bounds:\n  %s", strings.Join(over, "\n  "))
	}
	return nil
}
