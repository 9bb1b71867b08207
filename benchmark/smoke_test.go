package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// The workloads start this very binary as their echo peer (env.self), so
// the test binary has to answer to -echo the way the benchmark does.
func TestMain(m *testing.M) {
	if len(os.Args) == 4 && os.Args[1] == "-echo" {
		fmt.Fprintln(os.Stderr, echoMain(os.Args[2], os.Args[3]))
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload of BENCHMARK.json, untraced and traced, with
// a window of a third of a second, and asserts only what must hold on any
// machine: every metric the file names comes out, with the file's unit, and
// no operation fails its output check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and starts subprocesses")
	}
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator),
		"armus/cmd/armus-serve", "armus/cmd/armus-store")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the servers: %v\n%s", err, out)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// Run directories hold unix sockets, whose paths are capped at 108
	// bytes: keep them short and relative, as run.sh does.
	out, err := os.MkdirTemp(".", "smoke-out-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(out) })
	e := env{root: "..", bin: bin, out: out, self: self}
	for _, wl := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, traced), func(t *testing.T) {
				res, err := runOne(e, sp, options{workload: wl.Name, seed: 1, seconds: 0.3, trace: traced})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := sp.EndToEnd
				if traced {
					defs = sp.PerLayer
					if _, err := os.Stat(filepath.Join(out, wl.Name+".spans.json")); err != nil {
						t.Errorf("no spans file: %v", err)
					}
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Errorf("%s: got %+v (present=%v), want unit %q", d.Name, v, ok, d.Unit)
					}
					// A subprocess's CPU time comes in 10 ms ticks, and a
					// stretch of this run lasts 15 ms: it may see none.
					if !traced && v.Value <= 0 && d.Name != "cpu_us_per_event" {
						t.Errorf("%s = %v: an end-to-end metric is never 0", d.Name, v.Value)
					}
				}
			})
		}
	}
}

// TestSpecLimits checks BENCHMARK.json against the limits its reader sets.
func TestSpecLimits(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range sp.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		if _, err := newWorkload(env{}, options{workload: w.Name}); err != nil {
			t.Error(err)
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, d := range sp.EndToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(sp.EndToEnd, sp.PerLayer...) {
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range sp.PerLayer {
		check(d.Name)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
	// 4 + 22 runs per workload, each the window plus at most ten seconds
	// of build check, set-ups and warm-up (five, measured), and two cold
	// builds: under 3420 s.
	if total := (4 + 22*len(sp.Workloads)) * (sp.RunSeconds + 10); total+120 > 3420 {
		t.Errorf("%d s for all the driver's runs", total+120)
	}
}
