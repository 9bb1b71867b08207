package harness

import (
	"fmt"
	"sync"
	"time"

	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/obs"
	"armus/internal/server"
	"armus/internal/trace"
	"armus/internal/workloads/npb"
)

// serveClientCounts are the concurrency points of the serve experiment.
var serveClientCounts = []int{1, 8, 64}

// microDur formats gate latencies, which sit well under the millisecond
// resolution of Dur.
func microDur(ns int64) string {
	return fmt.Sprintf("%.0fµs", float64(ns)/float64(time.Microsecond))
}

// RunServe benchmarks verification-as-a-service end to end: an in-process
// armus-serve instance ingests the same recorded CG trace from 1, 8 and
// 64 concurrent client sessions (one session per client — the multi-
// tenant shape), every block round-tripping the avoidance gate. Reported
// per client count: aggregate ingest throughput (events/sec over the
// wall clock of the whole fleet) and the gate round-trip latency
// trajectory (p50/p99/p99.9 of the round trips the client SDK timed), plus
// the SERVER-side stage attribution of that latency — queue-wait / verify /
// flush p99 from the server's stage histograms diffed across the row's
// measured interval. Both sides use obs.Hist, so the columns compare
// bucket for bucket. Parity is asserted while measuring: each client's
// mirror gate (client.ReplayTrace) must agree with the server decision for
// decision, so the benchmark doubles as a correctness gate.
func RunServe(o Options) (*Table, error) {
	o.defaults()
	rec := trace.NewRecorder()
	rec.SetLabel(fmt.Sprintf("harness: npb CG (%d tasks, class %d, avoid)", o.TasksPerSite*2, o.Class))
	v := core.New(core.WithMode(core.ModeAvoid), core.WithTraceRecorder(rec))
	if _, err := npb.RunCG(v, npb.Config{Tasks: o.TasksPerSite * 2, Class: o.Class}); err != nil {
		v.Close()
		return nil, fmt.Errorf("serve: recording CG: %w", err)
	}
	v.Close()
	tr := rec.Trace()

	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Logf: func(string, ...any) {}})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer srv.Close()

	t := &Table{
		Title: fmt.Sprintf("Serve: %d-event CG trace per client vs a live armus-serve, gated blocks, %d samples",
			len(tr.Events), o.Samples),
		Header: []string{"Clients", "Events", "Mean", "CI", "Events/s", "Gate p50", "Gate p99", "Gate p99.9",
			"QWait p99", "Verify p99", "Flush p99"},
	}
	sm := srv.Metrics()
	stages := func() [3]obs.HistSnapshot {
		return [3]obs.HistSnapshot{sm.StageQueueWait.Snapshot(), sm.StageVerify.Snapshot(), sm.StageFlush.Snapshot()}
	}
	for _, n := range serveClientCounts {
		var m Measurement
		var lat obs.HistSnapshot
		var submitted int
		// Server-side stage attribution for this row: diff the cumulative
		// stage histograms across the row's measured samples.
		stageBase := stages()
		for s := 0; s <= o.Samples; s++ {
			start := time.Now()
			var wg sync.WaitGroup
			errs := make([]error, n)
			stats := make([]*client.ReplayStats, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c, err := client.Dial(client.Config{
						Addr:    srv.Addr(),
						Session: fmt.Sprintf("harness-n%d-s%d-c%d", n, s, i),
						Mode:    core.ModeAvoid,
					})
					if err != nil {
						errs[i] = err
						return
					}
					defer c.Close()
					stats[i], errs[i] = client.ReplayTrace(c, tr, client.ReplayOptions{})
				}(i)
			}
			wg.Wait()
			elapsed := time.Since(start)
			submitted = 0
			for i := 0; i < n; i++ {
				if errs[i] != nil {
					return nil, fmt.Errorf("serve/%d clients: %w", n, errs[i])
				}
				submitted += stats[i].Events
			}
			if s == 0 {
				// Warm-up discarded (start-up methodology); re-anchor the
				// stage interval so its observations are excluded too.
				stageBase = stages()
				continue
			}
			m.Samples = append(m.Samples, elapsed)
			// Percentiles are computed over every measured sample's round
			// trips, matching the Mean/CI column's population.
			for i := 0; i < n; i++ {
				lat = lat.Merge(stats[i].Gate.Snapshot())
			}
		}
		perSec := float64(submitted) / m.Mean().Seconds()
		row := []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", submitted),
			Dur(m.Mean()), Dur(m.CI95()),
			fmt.Sprintf("%.0f", perSec),
			microDur(lat.Percentile(50)),
			microDur(lat.Percentile(99)),
			microDur(lat.Percentile(99.9)),
		}
		for i, after := range stages() {
			row = append(row, microDur(after.Sub(stageBase[i]).Percentile(99)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Fprint(o.Out)
	return t, nil
}
