// Package gen is the benchmark's seeded input generator. It simulates a
// deadlock-free phaser program under a random schedule and writes the
// transitions a recording core.Verifier would have written — register,
// arrive, block, unblock — as a trace.Trace, so the same seed always gives
// the same bytes (live recording does not: goroutine interleaving changes
// the event count from run to run).
//
// The three shapes vary the tasks:phasers ratio that the paper's choice of
// graph model depends on (§5.1): SPMD is task-heavy, Mesh phaser-heavy and
// Cross spreads one program over several sites' ID spaces (§5.2).
//
// A generated trace starts and ends with no task blocked, so a driver may
// replay it in a loop for as long as its measuring window lasts.
package gen

import (
	"fmt"
	"math/rand"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/dist"
	"armus/internal/trace"
)

// Phaser is one barrier of a shape: its ID and its members, as indexes into
// Shape.Tasks.
type Phaser struct {
	ID      deps.PhaserID
	Members []int
}

// Shape is a program skeleton: every task advances, once per round, each
// phaser it is a member of, in the order of Shape.Phasers. One global order
// for all tasks is what makes the program deadlock free.
type Shape struct {
	Name    string
	Tasks   []deps.TaskID
	Phasers []Phaser
	// Rogue is the ID of the extra task the generator injects to close a
	// cycle (a refused gate in avoidance mode, a deadlock episode
	// otherwise). It is a member of no phaser.
	Rogue deps.TaskID
}

// SPMD is the task-heavy shape: every task is a member of every phaser
// (NPB/HPCC-style barrier rounds).
func SPMD(tasks, phasers int) Shape {
	s := Shape{Name: fmt.Sprintf("spmd-%dx%d", tasks, phasers), Rogue: deps.TaskID(tasks + 1000)}
	all := make([]int, tasks)
	for i := range all {
		all[i] = i
		s.Tasks = append(s.Tasks, deps.TaskID(i+1))
	}
	for q := 0; q < phasers; q++ {
		s.Phasers = append(s.Phasers, Phaser{ID: deps.PhaserID(q + 1), Members: all})
	}
	return s
}

// Groups is SPMD with sub-barriers: one phaser for everyone, one for each
// half and one for the even tasks. A task blocked on a group's barrier lags
// on the others, so tasks waiting there depend on it: unlike the all-member
// shape, the avoidance gate's search has edges to follow.
func Groups(tasks int) Shape {
	s := SPMD(tasks, 1)
	s.Name = fmt.Sprintf("groups-%dx4", tasks)
	var low, high, even []int
	for i := 0; i < tasks; i++ {
		if i < tasks/2 {
			low = append(low, i)
		} else {
			high = append(high, i)
		}
		if i%2 == 0 {
			even = append(even, i)
		}
	}
	for _, members := range [][]int{low, high, even} {
		s.Phasers = append(s.Phasers, Phaser{ID: deps.PhaserID(len(s.Phasers) + 1), Members: members})
	}
	return s
}

// Mesh is the phaser-heavy shape: tasks×own two-member phasers, phaser
// k*tasks+a joining task a with task a+1+k%(tasks-1), so every task is
// registered with 2×own phasers and every blocked status carries that many
// registrations (point-to-point neighbour synchronisation).
func Mesh(tasks, own int) Shape {
	s := Shape{Name: fmt.Sprintf("mesh-%dx%d", tasks, tasks*own), Rogue: deps.TaskID(tasks + 1000)}
	for i := 0; i < tasks; i++ {
		s.Tasks = append(s.Tasks, deps.TaskID(i+1))
	}
	for k := 0; k < own; k++ {
		for a := 0; a < tasks; a++ {
			b := (a + 1 + k%(tasks-1)) % tasks
			s.Phasers = append(s.Phasers, Phaser{ID: deps.PhaserID(k*tasks + a + 1), Members: []int{a, b}})
		}
	}
	return s
}

// Cross is the distributed shape: sites×perSite tasks whose IDs live in
// their site's ID space (site<<dist.SiteIDShift, sites numbered from 1), one
// barrier per site, a ring of two-member phasers joining the first task of
// neighbouring sites, and one global barrier.
func Cross(sites, perSite int) Shape {
	s := Shape{Name: fmt.Sprintf("cross-%dx%d", sites, perSite)}
	base := func(site int) int64 { return int64(site+1) << dist.SiteIDShift }
	s.Rogue = deps.TaskID(base(0) + 1000)
	var global []int
	for site := 0; site < sites; site++ {
		var local []int
		for i := 0; i < perSite; i++ {
			local = append(local, len(s.Tasks))
			s.Tasks = append(s.Tasks, deps.TaskID(base(site)+int64(i)+1))
		}
		global = append(global, local...)
		s.Phasers = append(s.Phasers, Phaser{ID: deps.PhaserID(base(site) + 1), Members: local})
	}
	for site := 0; site < sites; site++ {
		s.Phasers = append(s.Phasers, Phaser{
			ID:      deps.PhaserID(base(site) + 2),
			Members: []int{site * perSite, (site + 1) % sites * perSite},
		})
	}
	s.Phasers = append(s.Phasers, Phaser{ID: deps.PhaserID(base(0) + 3), Members: global})
	return s
}

// Config selects one trace.
type Config struct {
	Shape  Shape
	Seed   int64
	Rounds int
	// Mode is the mode of the session the trace is meant for. In
	// core.ModeAvoid an injection is a block the gate must refuse, written
	// as a VerdictRejected event; in any other mode it is a deadlock
	// episode: the rogue task's block is applied and cleared again a few
	// events later.
	Mode core.Mode
	// InjectEvery injects after every n-th ordinary block (0 disables).
	InjectEvery int
}

const (
	running = iota
	blocked
	woken
	done
)

// episodeHold is how many scheduler steps a deadlock episode lasts.
const episodeHold = 8

type simTask struct {
	id    deps.TaskID
	prog  []int   // indexes into Shape.Phasers, ascending
	phase []int64 // local phase per entry of prog
	pc    int
	round int
	state int
}

// Generate runs the simulation and returns the trace.
func Generate(cfg Config) (*trace.Trace, error) {
	sh := cfg.Shape
	if len(sh.Tasks) == 0 || len(sh.Phasers) == 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("gen: empty shape or no rounds")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &trace.Trace{
		Label: fmt.Sprintf("gen %s seed=%d rounds=%d mode=%v", sh.Name, cfg.Seed, cfg.Rounds, cfg.Mode),
		Mode:  uint8(cfg.Mode),
	}
	tasks := make([]*simTask, len(sh.Tasks))
	for i, id := range sh.Tasks {
		tasks[i] = &simTask{id: id}
	}
	for q, ph := range sh.Phasers {
		for _, m := range ph.Members {
			tasks[m].prog = append(tasks[m].prog, q)
			tasks[m].phase = append(tasks[m].phase, 0)
			tr.Events = append(tr.Events, trace.Event{Kind: trace.KindRegister, Task: tasks[m].id, Phaser: ph.ID})
		}
	}
	arrived := make([]int, len(sh.Phasers))   // members at the phase being formed
	waiters := make([][]int, len(sh.Phasers)) // tasks blocked on that phase
	runnable := make([]int, len(tasks))
	for i := range runnable {
		runnable[i] = i
		if len(tasks[i].prog) == 0 {
			return nil, fmt.Errorf("gen: task %d is a member of no phaser", tasks[i].id)
		}
	}
	// The mirror is the dependency state the trace builds up; it finds the
	// cycle an injection closes and proves ordinary blocks close none.
	mirror := deps.NewState()
	var sc deps.CycleScratch
	blocks, rogueUntil, step := 0, -1, 0

	status := func(t *simTask, waits deps.Resource) deps.Blocked {
		b := deps.Blocked{Task: t.id, WaitsFor: []deps.Resource{waits}}
		for i, q := range t.prog {
			b.Regs = append(b.Regs, deps.Reg{Phaser: sh.Phasers[q].ID, Phase: t.phase[i]})
		}
		return b
	}
	next := func(t *simTask) {
		if t.pc++; t.pc == len(t.prog) {
			t.pc = 0
			if t.round++; t.round == cfg.Rounds {
				t.state = done
			}
		}
	}
	// inject closes a two-task cycle through the task that just blocked on
	// phase n of phaser q: the rogue lags one phase behind on q (so it
	// impedes (q,n)) and waits for (q,n+1), which the blocked task impedes.
	inject := func(q deps.PhaserID, n int64) error {
		x := deps.Blocked{
			Task:     sh.Rogue,
			WaitsFor: []deps.Resource{{Phaser: q, Phase: n + 1}},
			Regs:     []deps.Reg{{Phaser: q, Phase: n - 1}},
		}
		mirror.SetBlocked(x)
		cyc, _ := mirror.CycleThrough(x.Task, &sc)
		if cyc == nil {
			return fmt.Errorf("gen: injection on %v closed no cycle", deps.Resource{Phaser: q, Phase: n})
		}
		if cfg.Mode == core.ModeAvoid {
			mirror.Clear(x.Task)
			tr.Events = append(tr.Events, trace.Event{
				Kind: trace.KindVerdict, Verdict: trace.VerdictRejected, Task: x.Task,
				Status: x, Tasks: cyc.Tasks, Resources: cyc.Resources,
			})
			return nil
		}
		tr.Events = append(tr.Events, trace.Event{Kind: trace.KindBlock, Task: x.Task, Status: x})
		rogueUntil = step + episodeHold
		return nil
	}
	endEpisode := func() {
		mirror.Clear(sh.Rogue)
		tr.Events = append(tr.Events, trace.Event{Kind: trace.KindUnblock, Task: sh.Rogue})
		rogueUntil = -1
	}

	for len(runnable) > 0 {
		step++
		if rogueUntil >= 0 && step >= rogueUntil {
			endEpisode()
		}
		ri := rng.Intn(len(runnable))
		t := tasks[runnable[ri]]
		if t.state == woken {
			mirror.Clear(t.id)
			tr.Events = append(tr.Events, trace.Event{Kind: trace.KindUnblock, Task: t.id})
			t.state = running
			next(t)
		} else {
			q := t.prog[t.pc]
			ph := sh.Phasers[q]
			t.phase[t.pc]++
			n := t.phase[t.pc]
			tr.Events = append(tr.Events, trace.Event{Kind: trace.KindArrive, Task: t.id, Phaser: ph.ID, Phase: n})
			if arrived[q]++; arrived[q] == len(ph.Members) {
				arrived[q] = 0
				for _, w := range waiters[q] {
					tasks[w].state = woken
					runnable = append(runnable, w)
				}
				waiters[q] = waiters[q][:0]
				next(t)
			} else {
				b := status(t, deps.Resource{Phaser: ph.ID, Phase: n})
				mirror.SetBlocked(b)
				if cfg.Mode == core.ModeAvoid {
					if cyc, _ := mirror.CycleThrough(t.id, &sc); cyc != nil {
						return nil, fmt.Errorf("gen: ordinary block of task %d closes a cycle", t.id)
					}
				}
				tr.Events = append(tr.Events, trace.Event{Kind: trace.KindBlock, Task: t.id, Status: b})
				t.state = blocked
				waiters[q] = append(waiters[q], runnable[ri])
				blocks++
				if cfg.InjectEvery > 0 && blocks%cfg.InjectEvery == 0 && rogueUntil < 0 {
					if err := inject(ph.ID, n); err != nil {
						return nil, err
					}
				}
			}
		}
		if t.state == blocked || t.state == done {
			runnable[ri] = runnable[len(runnable)-1]
			runnable = runnable[:len(runnable)-1]
		}
	}
	if rogueUntil >= 0 {
		endEpisode()
	}
	for _, t := range tasks {
		if t.state != done {
			return nil, fmt.Errorf("gen: task %d stuck in round %d: the shape's program deadlocks", t.id, t.round)
		}
	}
	if mirror.Len() != 0 {
		return nil, fmt.Errorf("gen: %d tasks still blocked at the end of the trace", mirror.Len())
	}
	return tr, nil
}
