// Command armus-loadgen drives a live armus-serve with N concurrent
// synthetic clients and verifies PARITY while it loads: every trace it
// streams is simultaneously checked against the in-process verification
// machinery, so a verdict divergence between service and library fails
// the run.
//
//	armus-loadgen -addr 127.0.0.1:7777 -clients 64 -mode avoid
//	armus-loadgen -addr 127.0.0.1:7777 -clients 16 -mode detect -corpus 'testdata/corpus/*.trace'
//	armus-loadgen -fleet host1:7777,host2:7777 -clients 32 -kill-pid $SRV1 -kill-after 2s
//
// With -fleet, sessions route by rendezvous hashing across the listed
// servers and fail over when one dies; -kill-pid/-kill-after SIGKILL a
// server mid-run, so an exit status of 0 additionally certifies zero
// verdict divergence across the kill (snapshot rehydration + client
// resync).
//
// Sources: every trace matching -corpus plus -sim-seeds freshly recorded
// internal/sim program executions. Each client replays each source into
// its own session (multi-tenant load), with:
//
//   - avoid mode: every block round-trips the server's gate and the
//     decision is asserted against a local mirror of the in-process gate
//     (admit/refuse must agree block for block); gate round-trip
//     latencies feed the p50/p99 report.
//   - detect mode: mutations stream fire-and-forget; checkpoints every
//     -check-every mutations assert the server verdict against the
//     in-process replay (internal/trace/replay) of the same trace.
//
// Exit status 0 means zero divergences; any parity violation (or
// transport failure) exits 1 with the offending client/trace named.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/obs"
	"armus/internal/sim"
	"armus/internal/trace"
	"armus/internal/trace/replay"
)

type source struct {
	name     string
	tr       *trace.Trace
	expected []bool // in-process Detect verdict sequence (detect parity)
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7777", "armus-serve address")
		fleetCSV   = flag.String("fleet", "", "comma-separated fleet shard map: sessions route by rendezvous hashing with failover (-addr is ignored)")
		clients    = flag.Int("clients", 64, "concurrent client sessions")
		mode       = flag.String("mode", "avoid", "session mode: avoid or detect")
		corpus     = flag.String("corpus", "testdata/corpus/*.trace", "trace corpus glob ('' disables)")
		simSeeds   = flag.Int("sim-seeds", 4, "additionally record this many sim program traces as sources")
		iters      = flag.Int("iters", 1, "replays of each source per client")
		checkEvery = flag.Int("check-every", 8, "checkpoint (verdict parity probe) every n mutations")
		prefix     = flag.String("session-prefix", "lg", "session name prefix")
		killAfter  = flag.Duration("kill-after", 0, "SIGKILL the -kill-pid process this long into the run (chaos injection)")
		killPid    = flag.Int("kill-pid", 0, "process to SIGKILL after -kill-after (0 disables)")
		debugURL   = flag.String("debug-url", "", "armus-serve -http address: fetch and print the server's stage-latency breakdown after the run")
	)
	flag.Parse()
	var fleet []string
	if *fleetCSV != "" {
		fleet = strings.Split(*fleetCSV, ",")
		// Fleet runs persist session snapshots that outlive servers AND this
		// process; a rerun reusing session names would rehydrate the
		// previous run's state mid-parity-check. The pid nonce keeps every
		// run's namespace fresh.
		*prefix = fmt.Sprintf("%s%d", *prefix, os.Getpid())
	}

	var m core.Mode
	switch *mode {
	case "avoid":
		m = core.ModeAvoid
	case "detect":
		m = core.ModeDetect
	default:
		fmt.Fprintf(os.Stderr, "armus-loadgen: unknown -mode %q (avoid, detect)\n", *mode)
		os.Exit(2)
	}

	sources, err := loadSources(*corpus, *simSeeds, m)
	if err != nil {
		fmt.Fprintln(os.Stderr, "armus-loadgen:", err)
		os.Exit(1)
	}
	if len(sources) == 0 {
		fmt.Fprintln(os.Stderr, "armus-loadgen: no sources (empty corpus and -sim-seeds 0)")
		os.Exit(2)
	}
	target := *addr
	if len(fleet) > 0 {
		target = fmt.Sprintf("fleet %v", fleet)
	}
	fmt.Printf("armus-loadgen: %d clients x %d sources x %d iters against %s (%s mode, checkpoint every %d)\n",
		*clients, len(sources), *iters, target, m, *checkEvery)

	if *killPid != 0 && *killAfter > 0 {
		go func() {
			time.Sleep(*killAfter)
			fmt.Printf("armus-loadgen: chaos: SIGKILL pid %d at t=%v\n", *killPid, *killAfter)
			if err := syscall.Kill(*killPid, syscall.SIGKILL); err != nil {
				fmt.Fprintf(os.Stderr, "armus-loadgen: kill %d: %v\n", *killPid, err)
			}
		}()
	}

	type result struct {
		events, mutations, rejections, checkpoints int
		lat                                        obs.HistSnapshot
		err                                        error
	}
	results := make([]result, *clients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &results[i]
			for it := 0; it < *iters; it++ {
				for j, src := range sources {
					// One fresh session per (client, source, iter): parity
					// needs a clean state, and the churn exercises the
					// session table and janitor like real tenants do.
					// The mode is part of the name: sessions from an earlier
					// run in the other mode may still be inside their lease.
					c, err := client.Dial(client.Config{
						Addr:    *addr,
						Fleet:   fleet,
						Session: fmt.Sprintf("%s-%s-c%d-s%d-i%d", *prefix, m, i, j, it),
						Mode:    m,
					})
					if err != nil {
						r.err = fmt.Errorf("client %d: dial: %w", i, err)
						return
					}
					st, err := client.ReplayTrace(c, src.tr, client.ReplayOptions{
						CheckEvery: *checkEvery,
						Expected:   src.expected,
					})
					if st != nil {
						r.events += st.Events
						r.mutations += st.Mutations
						r.rejections += st.Rejections
						r.checkpoints += st.Checkpoints
						r.lat = r.lat.Merge(st.Gate.Snapshot())
					}
					cerr := c.Close()
					if err != nil {
						r.err = fmt.Errorf("client %d, source %s: %w", i, src.name, err)
						return
					}
					if cerr != nil {
						r.err = fmt.Errorf("client %d, source %s: close: %w", i, src.name, cerr)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var events, mutations, rejections, checkpoints int
	var lat obs.HistSnapshot
	failed := false
	for i := range results {
		r := &results[i]
		if r.err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "armus-loadgen: DIVERGENCE/FAILURE: %v\n", r.err)
		}
		events += r.events
		mutations += r.mutations
		rejections += r.rejections
		checkpoints += r.checkpoints
		lat = lat.Merge(r.lat)
	}
	fmt.Printf("armus-loadgen: %d events (%d mutations, %d checkpoints, %d gate rejections) in %v = %.0f events/s\n",
		events, mutations, checkpoints, rejections, elapsed, float64(events)/elapsed.Seconds())
	if lat.Count > 0 {
		fmt.Printf("armus-loadgen: gate latency p50=%v p99=%v max=%v over %d round trips\n",
			time.Duration(lat.Percentile(50)), time.Duration(lat.Percentile(99)), time.Duration(lat.Percentile(100)), lat.Count)
	}
	if *debugURL != "" {
		// Server-side attribution of the latency just measured from the
		// outside: where a gate's time went (queue wait vs verifier work vs
		// egress flush).
		if st, err := client.ServerStages(*debugURL); err != nil {
			fmt.Fprintf(os.Stderr, "armus-loadgen: server stages: %v\n", err)
		} else {
			fmt.Printf("armus-loadgen: server stages: queue-wait p50=%dµs p99=%dµs | verify p50=%dµs p99=%dµs | flush p50=%dµs p99=%dµs\n",
				st.QueueWait.P50Us, st.QueueWait.P99Us,
				st.Verify.P50Us, st.Verify.P99Us,
				st.Flush.P50Us, st.Flush.P99Us)
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "armus-loadgen: FAILED")
		os.Exit(1)
	}
	fmt.Println("armus-loadgen: OK (zero divergences)")
}

// loadSources assembles the trace sources: the corpus glob plus freshly
// recorded sim executions. Detect-mode sources carry the in-process
// replay's verdict sequence as the parity expectation.
func loadSources(glob string, simSeeds int, m core.Mode) ([]source, error) {
	var out []source
	if glob != "" {
		paths, err := filepath.Glob(glob)
		if err != nil {
			return nil, err
		}
		sort.Strings(paths)
		for _, p := range paths {
			tr, err := trace.ReadFile(p)
			if err != nil {
				return nil, err
			}
			out = append(out, source{name: filepath.Base(p), tr: tr})
		}
	}
	rm := sim.RunAvoid
	if m == core.ModeDetect {
		rm = sim.RunDetect
	}
	for seed := 1; seed <= simSeeds; seed++ {
		res, err := sim.Run(sim.Config{Seed: uint64(seed)}, rm)
		if err != nil {
			return nil, fmt.Errorf("sim seed %d: %w", seed, err)
		}
		if res.Trace == nil || len(res.Trace.Events) == 0 {
			continue
		}
		out = append(out, source{name: fmt.Sprintf("sim-seed%d", seed), tr: res.Trace})
	}
	if m == core.ModeDetect {
		for i := range out {
			exp, err := replay.ReplayTrace(out[i].tr, replay.Detect, replay.Options{})
			if err != nil {
				return nil, fmt.Errorf("%s: in-process replay: %w", out[i].name, err)
			}
			out[i].expected = exp.Verdicts
		}
	}
	return out, nil
}
