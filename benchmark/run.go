package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"armus/benchmark/stats"
)

// env is where a run finds things.
type env struct {
	root string // the checkout: holds BENCHMARK.json
	bin  string // armus-serve and armus-store
	out  string // result files and the run directories
	self string // this executable, re-run as the echo peer
}

// options is one run as the driver asks for it.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// window is what one stretch of closed-loop driving measured. Stretches of
// one run are merged by adding them up.
type window struct {
	wall   time.Duration
	events int64 // verifier events the system applied
	ops    int64 // operations whose outcome was checked
	failed int64 // of those, transport errors and wrong outcomes
	// positives counts the checked operations whose right outcome was a
	// refusal or a deadlock: a check that only ever saw "no" proves little.
	positives int64
	lat       stats.Hist
	// byWall says what one operation costs, the numerator of slowdown_x:
	// wall time per operation for the in-process workload (set), the
	// median latency for a service workload.
	byWall  bool
	sutCPU  time.Duration // CPU of the system under test
	selfCPU time.Duration // CPU of this process
	// counts holds what counters of the server, the store client and the
	// sites advanced by over the stretch, and the CPU time of single
	// processes, read at the stretch's edges. Only traced stretches fill
	// it; the workload's perLayer turns the sums into per-layer metrics.
	counts metrics
}

func (w *window) merge(o *window) {
	w.wall += o.wall
	w.events += o.events
	w.ops += o.ops
	w.failed += o.failed
	w.positives += o.positives
	w.lat.Merge(&o.lat)
	w.sutCPU += o.sutCPU
	w.selfCPU += o.selfCPU
	w.byWall = o.byWall
	for name, v := range o.counts {
		if w.counts == nil {
			w.counts = metrics{}
		}
		w.counts[name] += v
	}
}

func (w *window) rate() float64 { return float64(w.events) / w.wall.Seconds() }

func (w *window) costNs() float64 {
	if w.byWall {
		return float64(w.wall) / float64(w.ops)
	}
	return float64(w.lat.Median())
}

// workload is one of the four things the benchmark runs.
type workload interface {
	// setUp generates and validates the inputs, starts the subprocesses
	// and connects: everything up to being ready for the first operation.
	setUp() error
	// tearDown stops every subprocess, waits for it and removes the run
	// directory. It may be called more than once.
	tearDown() error
	// drive runs the closed loop for about d. sp is nil with tracing off.
	drive(d time.Duration, sp *spanLog) (*window, error)
	// floor measures for about d what one operation costs with no
	// verification at all, in nanoseconds.
	floor(d time.Duration) (float64, error)
	peakRSSMiB() (float64, error)

	// The rest serves traced runs only.
	// newSpans makes the span log of a traced stretch: one buffer per
	// worker, the workload's span names, its sampling period.
	newSpans() *spanLog
	// layers lists the layers the workload exercises; per-layer metrics of
	// every other layer are reported as 0.
	layers() []string
	// perLayer computes the per-layer metrics that come from driving (the
	// ladder adds the rest) out of traced stretches: sel is the fastest of
	// them merged, all is every one, for what sel is too short to count.
	perLayer(sel, all *window, sp *spanLog) metrics
	// ladder pushes the workload's own inputs through each lower layer
	// alone, single-threaded, and records the per-call costs in m, the
	// floor (as floor returned it) among them.
	ladder(floorNs float64, m metrics) error
	// audit runs the output checks that need the system stopped.
	audit(sent *window) error
}

func newWorkload(e env, o options) (workload, error) {
	switch o.workload {
	case "lib-barrier":
		return newLib(o.seed, o.seconds), nil
	case "serve-gate":
		return newServe(e, o.seed, o.seconds, false), nil
	case "serve-stream":
		return newServe(e, o.seed, o.seconds, true), nil
	case "dist-round":
		return newDist(e, o.seed, o.seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// runDir makes a fresh directory for one set-up's sockets, logs and
// archive.
func runDir(e env, name string) (string, error) {
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.out, "run-"+name+"-")
}

// The host this runs on is shared, and it shows: for phases of about a
// second, several times a minute, everything that enters the kernel takes
// 1.5 to 2 times as long (a loopback echo 22 us instead of 14 us, a gate
// 41 us instead of 21 us), and the share of a run spent like that lies
// anywhere between a tenth and two thirds. A median over the run lands in
// one state or the other by luck. So a measured run is cut into short
// stretches, and the metrics are computed from the fastest eighth of them:
// what the system does on the machine left alone, which is the same from
// one run to the next.
const (
	// episodes is how often a measured run sets up from nothing: fresh
	// subprocesses, connections and sessions. Set-up time is the fastest
	// of as many set-ups — a set-up takes a fifth to a third of a second,
	// so each falls into one state of the machine whole, and over ten
	// runs the median of five spread by 7-19 %, the fastest by 2-8 % —
	// and peak memory the median of as many processes.
	episodes = 5
	// stretch is how long one stretch of driving lasts: well under the
	// second a disturbed phase lasts, well over the 10 ms tick CPU time
	// is counted in.
	stretch = 100 * time.Millisecond
	// floorEvery: after that many stretches of driving comes one of the
	// floor, so both are measured over the same seconds.
	floorEvery = 4
	// keep is the share of the stretches, the fastest ones, that the
	// metrics come from. A quarter still lets disturbed stretches in when
	// the host is busy (spread of op_p99_us over ten runs: 17 % with a
	// quarter, 13 % with an eighth; 11 % and 5 % on a calmer day).
	keep = 0.125
)

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// fastest orders the stretches by events per second, highest first, and
// returns the first n of them.
func fastest(ws []*window, n int) []*window {
	sort.Slice(ws, func(i, j int) bool { return ws[i].rate() > ws[j].rate() })
	return ws[:min(n, len(ws))]
}

// runMeasured is a --trace 0 run: tracing off, the end-to-end metrics.
func runMeasured(w workload, o options) (metrics, *window, error) {
	// An episode's share of the window is cut into cycles of one stretch
	// of the floor and floorEvery stretches of driving. A window too
	// short for one cycle (the smoke test's) gets shorter stretches.
	share := seconds(o.seconds / episodes)
	cycles := max(1, int(share/(stretch*(floorEvery+1))))
	length := min(stretch, share/(floorEvery+1))
	stretches := episodes * cycles * floorEvery
	kept := max(1, int(keep*float64(stretches)))
	total := &window{}
	var best []*window // the fastest stretches so far, at most kept
	var setups, rss, floors []float64
	for ep := 0; ep < episodes; ep++ {
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		// Warm-up: caches, scratch and socket buffers reach their steady
		// size before anything is timed.
		if _, err := w.drive(5*length, nil); err != nil {
			return nil, nil, err
		}
		if _, err := w.floor(length); err != nil {
			return nil, nil, err
		}
		var rates []float64
		for i := 0; i < cycles*floorEvery; i++ {
			if i%floorEvery == 0 {
				f, err := w.floor(length)
				if err != nil {
					return nil, nil, err
				}
				floors = append(floors, f)
			}
			sl, err := w.drive(length, nil)
			if err != nil {
				return nil, nil, err
			}
			if sl.events == 0 || sl.lat.Count() == 0 {
				return nil, nil, fmt.Errorf("a stretch of %v completed no operation", length)
			}
			total.merge(sl)
			rates = append(rates, sl.rate())
			best = append(best, sl)
		}
		// Only the stretches that can still be among the fastest are
		// held on to: each has a histogram, and for two workloads this
		// process's memory is the metric.
		best = fastest(best, kept)
		r, err := w.peakRSSMiB()
		if err != nil {
			return nil, nil, err
		}
		rss = append(rss, r)
		if err := w.tearDown(); err != nil {
			return nil, nil, err
		}
		sort.Float64s(rates)
		fmt.Printf("# episode %d: set-up %.3f s; %d stretches of %v: %.0f to %.0f events/s, median %.0f\n",
			ep, setups[ep], len(rates), length, rates[0], rates[len(rates)-1], median(rates))
	}
	sel := &window{}
	for _, sl := range best {
		sel.merge(sl)
	}
	// The floor in the same state of the machine: the median of its
	// fastest eighth.
	sort.Float64s(floors)
	floor := median(floors[:max(1, int(keep*float64(len(floors))))])
	m := metrics{
		"setup_s":          slices.Min(setups),
		"events_per_s":     sel.rate(),
		"cpu_us_per_event": float64(sel.sutCPU.Microseconds()) / float64(sel.events),
		"peak_rss_mb":      median(rss),
		"op_p50_us":        float64(sel.lat.Quantile(50)) / 1e3,
		"op_p99_us":        float64(sel.lat.Quantile(99)) / 1e3,
		"slowdown_x":       sel.costNs() / floor,
	}
	fmt.Printf("# metrics from the fastest %d of %d stretches (%.0f events/s and more, %d operations timed); floor %.2f us\n",
		len(best), stretches, best[len(best)-1].rate(), sel.lat.Count(), floor/1e3)
	tp, tv := total.lat.Tail()
	fmt.Printf("# all stretches: %d operations timed; highest percentile with ten samples beyond it: p%v = %.1f us, max %.1f us\n",
		total.lat.Count(), tp, float64(tv)/1e3, float64(total.lat.Max())/1e3)
	fmt.Printf("# %d checked outcomes were refusals or deadlocks\n", total.positives)
	return m, total, nil
}

// runTraced is a --trace 1 run: after the floor, 3/5 of the window in
// pairs of short stretches, one plain and one with a span around every call
// into a layer; then the ladder. The per-layer metrics that come from
// driving are computed from the fastest eighth of the traced stretches, as
// the end-to-end ones are in a measured run. It takes about as long as one.
func runTraced(w workload, e env, sp *spec, o options) (metrics, *window, error) {
	if err := w.setUp(); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	total, err := w.drive(seconds(o.seconds/20), nil)
	if err != nil {
		return nil, nil, err
	}
	length := min(stretch, seconds(o.seconds/20))
	f := math.Inf(1)
	for i := 0; i < max(1, int(seconds(o.seconds/20)/stretch)); i++ {
		v, err := w.floor(length)
		if err != nil {
			return nil, nil, err
		}
		f = min(f, v)
	}
	// The overhead of tracing is the median over the pairs of how much
	// slower the traced stretch was: the two of a pair see the machine in
	// the same state, and the median drops the pairs that straddle a
	// change of it.
	log := w.newSpans()
	tw := &window{} // every traced stretch
	var traced []*window
	var slower []float64
	for i := 0; i < max(1, int(seconds(o.seconds*3/5)/(2*stretch))); i++ {
		plain, err := w.drive(length, nil)
		if err != nil {
			return nil, nil, err
		}
		tr, err := w.drive(length, log)
		if err != nil {
			return nil, nil, err
		}
		if plain.events == 0 || tr.events == 0 {
			return nil, nil, fmt.Errorf("a stretch of %v completed no operation", length)
		}
		slower = append(slower, 1-tr.rate()/plain.rate())
		total.merge(plain)
		tw.merge(tr)
		traced = append(traced, tr)
	}
	total.merge(tw)
	sel := &window{}
	for _, tr := range fastest(traced, max(1, int(keep*float64(len(traced))))) {
		sel.merge(tr)
	}
	m := w.perLayer(sel, tw, log)
	m["bench.trace_overhead_pct"] = 100 * median(slower)
	m["bench.op_samples"] = float64(tw.lat.Count())
	tp, tv := tw.lat.Tail()
	m["bench.tail_percentile"] = tp
	m["bench.op_tail_us"] = float64(tv) / 1e3
	m["bench.op_max_us"] = float64(tw.lat.Max()) / 1e3
	m["bench.spans_recorded"] = float64(log.len())
	if err := w.ladder(f, m); err != nil {
		return nil, nil, fmt.Errorf("ladder: %w", err)
	}
	if err := w.audit(total); err != nil {
		return nil, nil, err
	}
	if err := w.tearDown(); err != nil {
		return nil, nil, err
	}
	m.zeroOutside(sp.PerLayer, append(w.layers(), "bench")...)
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, nil, err
	}
	return m, total, log.write(filepath.Join(e.out, o.workload+".spans.json"), o.workload)
}

// runOne runs one workload once and builds the result line.
func runOne(e env, sp *spec, o options) (*result, error) {
	w, err := newWorkload(e, o)
	if err != nil {
		return nil, err
	}
	defer w.tearDown() // the error paths; the success paths have checked it already
	var m metrics
	var total *window
	defs := sp.EndToEnd
	if o.trace {
		defs = sp.PerLayer
		m, total, err = runTraced(w, e, sp, o)
	} else {
		m, total, err = runMeasured(w, o)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	vals, err := m.build(defs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	return &result{Correct: total.failed == 0, Attempted: total.ops, Failed: total.failed, Metrics: vals}, nil
}
