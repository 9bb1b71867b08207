package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"armus/benchmark/gen"
	"armus/internal/core"
)

// libWL is the lib-barrier workload: the application's view of the paper's
// Table 2. Sixteen goroutine tasks run barrier rounds over four phasers
// (everyone, each half, the even tasks: gen.Groups) through
// core.Phaser.Advance inside this process; package core and package deps do
// all the work and no socket, store or archive is involved. The floor is
// the same program under core.ModeOff.
type libWL struct {
	seed  int64
	secs  float64
	shape gen.Shape
	in    *input
	// order[r%len] is the order in which every task advances the phasers
	// in round r: seeded, and the same for all tasks, which is what keeps
	// the program deadlock free.
	order [][]int
	ord   int64 // ordinal of the leader's next Advance, for span sampling
}

func newLib(seed int64, secs float64) *libWL {
	return &libWL{seed: seed, secs: secs, shape: gen.Groups(16)}
}

func (l *libWL) setUp() error {
	// The generated trace is the program's recorded twin: validating it
	// proves the shape deadlock free before goroutines are committed to
	// it, and the ladder replays its statuses through deps and core.
	in, err := makeInput(gen.Config{
		Shape: l.shape, Seed: l.seed, Rounds: 96,
		Mode: core.ModeAvoid, InjectEvery: 1000,
	})
	if err != nil {
		return err
	}
	l.in = in
	rng := rand.New(rand.NewSource(l.seed))
	l.order = make([][]int, 64)
	for r := range l.order {
		l.order[r] = rng.Perm(len(l.shape.Phasers))
	}
	return nil
}

func (l *libWL) tearDown() error { return nil }

// slice runs the program under mode for about d on a fresh verifier and
// returns what it cost. Only the leader task times its calls: sixteen
// tasks reading the clock twice per call would add to every mode the same
// cost and so shrink the ratio between them.
func (l *libWL) slice(mode core.Mode, d time.Duration, sp *spanLog) (*window, error) {
	var reports atomic.Int64
	v := core.New(core.WithMode(mode), core.WithOnDeadlock(func(*core.DeadlockError) { reports.Add(1) }))
	defer v.Close()
	tasks := make([]*core.Task, len(l.shape.Tasks))
	for i := range tasks {
		tasks[i] = v.NewTask(fmt.Sprintf("t%d", i))
	}
	phasers := make([]*core.Phaser, len(l.shape.Phasers))
	member := make([][]bool, len(phasers)) // member[q][task]
	var perRound int64
	for q, ph := range l.shape.Phasers {
		first := tasks[ph.Members[0]]
		phasers[q] = v.NewPhaser(first)
		member[q] = make([]bool, len(tasks))
		for _, i := range ph.Members {
			member[q][i] = true
			if tasks[i] != first {
				if err := phasers[q].Register(first, tasks[i]); err != nil {
					return nil, err
				}
			}
		}
		perRound += int64(len(ph.Members))
	}
	w := &window{}
	// The leader decides the last round at the start of a round; nobody
	// can be past that round yet, because finishing it needs the leader's
	// arrival. So every task runs the same number of rounds.
	var final atomic.Int64
	final.Store(math.MaxInt64)
	rounds := make([]int64, len(tasks))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	cpu0, start := selfCPU(), time.Now()
	for i := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tasks[i].Terminate()
			var r int64
			for ; r < final.Load(); r++ {
				if i == 0 && time.Since(start) >= d {
					final.Store(r + 1)
				}
				for _, q := range l.order[r%int64(len(l.order))] {
					if !member[q][i] {
						continue
					}
					if i != 0 {
						if err := phasers[q].Advance(tasks[i]); err != nil && errs[i] == nil {
							errs[i] = err
						}
						continue
					}
					sb := sp.sampled(0, l.ord)
					root := sb.begin(0, -1, l.ord)
					call := sb.begin(1, root, l.ord)
					t0 := time.Now()
					err := phasers[q].Advance(tasks[0])
					w.lat.Observe(int64(time.Since(t0)))
					sb.end(call)
					sb.end(root)
					l.ord++
					if err != nil && errs[0] == nil {
						errs[0] = err
					}
				}
			}
			rounds[i] = r
		}()
	}
	wg.Wait()
	w.wall = time.Since(start)
	w.selfCPU = selfCPU() - cpu0
	w.sutCPU = w.selfCPU
	// Output checks: no call failed, every task ran the same rounds, and
	// the verifier saw no deadlock in a program that has none.
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("task %d: Advance: %w", i, err)
		}
		if rounds[i] != rounds[0] {
			return nil, fmt.Errorf("task %d ran %d rounds, task 0 ran %d", i, rounds[i], rounds[0])
		}
	}
	w.ops = rounds[0] * perRound
	w.events = w.ops
	if st := v.Stats(); st.Deadlocks != 0 || reports.Load() != 0 {
		w.failed = st.Deadlocks + reports.Load()
	}
	w.byWall = true
	return w, nil
}

func (l *libWL) drive(d time.Duration, sp *spanLog) (*window, error) {
	return l.slice(core.ModeAvoid, d, sp)
}

func (l *libWL) perLayer(w, _ *window, _ *spanLog) metrics {
	return metrics{"core.avoid_ns_per_op": w.costNs()}
}

func (l *libWL) floor(d time.Duration) (float64, error) {
	w, err := l.slice(core.ModeOff, d, nil)
	if err != nil {
		return 0, err
	}
	if w.ops == 0 {
		return 0, fmt.Errorf("unchecked slice of %v completed no round", d)
	}
	return w.costNs(), nil
}

func (l *libWL) peakRSSMiB() (float64, error) { return peakRSSMiB(os.Getpid()) }

// Only the leader's calls are spans; one in 16 of them.
func (l *libWL) newSpans() *spanLog { return newSpanLog(1, 16, "op", "core.Phaser.Advance") }
func (l *libWL) layers() []string   { return []string{"floor", "deps", "graph", "core"} }

func (l *libWL) ladder(floorNs float64, m metrics) error {
	// The same program once more under the detection loop: what the
	// periodic checker costs the application next to the gate.
	w, err := l.slice(core.ModeDetect, seconds(l.secs/20), nil)
	if err != nil {
		return err
	}
	if w.failed != 0 {
		return fmt.Errorf("detection mode reported %d deadlocks in a deadlock-free program", w.failed)
	}
	m["core.detect_ns_per_op"] = w.costNs()
	m["floor.lib_unchecked_ns_per_op"] = floorNs
	m["floor.echo_rtt_p50_us"] = 0 // no socket anywhere in this workload
	n := ladderCalls(l.secs)
	ladderDeps(l.in, n, m)
	ladderGraph(l.in, n, m)
	ladderCore(l.in, n, m)
	return nil
}

func (l *libWL) audit(*window) error { return nil }
