package deps

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"armus/internal/sim/oracle"
)

// checkInvariants verifies the index two ways: its internal links (every
// slot, back-pointer and count is what the entries say it should be) and
// its content against a fresh State rebuilt from Snapshot() — per phaser
// the same registrations of blocked tasks and exactly the same awaited
// phases and waiter counts.
func (s *State) checkInvariants() error {
	snap := s.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tasks) != len(s.entries) {
		return fmt.Errorf("%d tasks in the map, %d entries", len(s.tasks), len(s.entries))
	}
	blocked, refs := 0, 0
	for slot, e := range s.entries {
		if int(e.slot) != slot || s.tasks[e.b.Task] != e {
			return fmt.Errorf("task %d: slot %d at index %d, or not the map's entry", e.b.Task, e.slot, slot)
		}
		if len(e.regs) != len(e.b.Regs) {
			return fmt.Errorf("task %d: %d regs, %d slots", e.b.Task, len(e.b.Regs), len(e.regs))
		}
		for i, sl := range e.regs {
			if s.phasers[e.b.Regs[i].Phaser] != sl.node || sl.node.dead {
				return fmt.Errorf("task %d reg %d: node is not the live node of phaser %d", e.b.Task, i, e.b.Regs[i].Phaser)
			}
			if ref := sl.node.regs[sl.pos]; ref.e != e || int(ref.ri) != i || ref.phase != e.b.Regs[i].Phase {
				return fmt.Errorf("task %d reg %d: index holds %+v", e.b.Task, i, ref)
			}
		}
		refs += len(e.regs)
		if !e.blocked {
			continue
		}
		blocked++
		for i, w := range e.b.WaitsFor {
			if n := e.waits[i]; s.phasers[w.Phaser] != n || n.dead {
				return fmt.Errorf("task %d wait %d: node is not the live node of phaser %d", e.b.Task, i, w.Phaser)
			}
		}
	}
	if blocked != s.count || blocked != len(snap) {
		return fmt.Errorf("%d blocked entries, count %d, snapshot %d", blocked, s.count, len(snap))
	}
	fresh := NewState()
	for _, b := range snap {
		fresh.SetBlocked(b)
	}
	type reg struct {
		task  TaskID
		phase int64
	}
	blockedRegs := func(n *phaserNode) []reg {
		var out []reg
		for _, ref := range n.regs {
			if ref.e.blocked {
				out = append(out, reg{ref.e.b.Task, ref.phase})
			}
		}
		slices.SortFunc(out, func(a, b reg) int {
			return cmp.Or(cmp.Compare(a.task, b.task), cmp.Compare(a.phase, b.phase))
		})
		return out
	}
	for id, n := range s.phasers {
		if n.id != id || n.dead || len(n.regs)+len(n.waits) == 0 {
			return fmt.Errorf("phaser %d: node id %d dead %v regs %d waits %d", id, n.id, n.dead, len(n.regs), len(n.waits))
		}
		refs -= len(n.regs)
		var want phaserNode
		if f := fresh.phasers[id]; f != nil {
			want = *f
		}
		if !slices.Equal(blockedRegs(n), blockedRegs(&want)) {
			return fmt.Errorf("phaser %d: blocked registrations %v, rebuilt %v", id, blockedRegs(n), blockedRegs(&want))
		}
		if !slices.Equal(n.waits, want.waits) {
			return fmt.Errorf("phaser %d: waits %v, rebuilt %v", id, n.waits, want.waits)
		}
	}
	if refs != 0 {
		return fmt.Errorf("%d registrations unaccounted for between entries and nodes", refs)
	}
	for id := range fresh.phasers {
		if s.phasers[id] == nil {
			return fmt.Errorf("phaser %d missing from the live index", id)
		}
	}
	return nil
}

// churnModel is the reference the churn test keeps next to the State: the
// blocked statuses by task, from which the oracle's state and the WFG edge
// relation are read off directly.
type churnModel map[TaskID]Blocked

func (m churnModel) oracle() *oracle.State {
	o := oracle.NewState()
	for t, b := range m {
		regs := map[int64]int64{}
		for _, r := range b.Regs {
			regs[int64(r.Phaser)] = r.Phase
		}
		w := b.WaitsFor[0]
		o.AddBlocked(int64(t), oracle.Await{Phaser: int64(w.Phaser), Phase: w.Phase}, regs)
	}
	return o
}

// edge reports whether from waits for an event that to impedes.
func (m churnModel) edge(from, to TaskID) bool {
	w := m[from].WaitsFor[0]
	for _, r := range m[to].Regs {
		if r.Phaser == w.Phaser && r.Phase < w.Phase {
			return true
		}
	}
	return false
}

// reachableEdges counts the WFG edges leaving the tasks reachable from
// start: what a search from start that finds no cycle must have examined —
// unless no edge enters start, when the pre-filter answers without one.
func (m churnModel) reachableEdges(start TaskID) int {
	entered := false
	for t := range m {
		entered = entered || m.edge(t, start)
	}
	if !entered {
		return 0
	}
	seen, todo, edges := map[TaskID]bool{start: true}, []TaskID{start}, 0
	for len(todo) > 0 {
		u := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		for t := range m {
			if m.edge(u, t) {
				if edges++; !seen[t] {
					seen[t] = true
					todo = append(todo, t)
				}
			}
		}
	}
	return edges
}

// expandedEdges counts the WFG edges leaving the tasks some edge enters:
// what a deadlock-free FindCycle must have examined, since it expands each
// of those once and no other task.
func (m churnModel) expandedEdges() int {
	edges := 0
	for to := range m {
		entered := false
		for from := range m {
			entered = entered || m.edge(from, to)
		}
		for t := range m {
			if entered && m.edge(to, t) {
				edges++
			}
		}
	}
	return edges
}

// checkCycle fails unless every consecutive pair of cyc, wrapping around,
// is a WFG edge.
func (m churnModel) checkCycle(cyc []TaskID) error {
	for i, from := range cyc {
		if to := cyc[(i+1)%len(cyc)]; !m.edge(from, to) {
			return fmt.Errorf("reported cycle %v has no edge %d -> %d", cyc, from, to)
		}
	}
	return nil
}

// TestStateChurnAgainstOracle drives the State through seeded random churn
// — block, re-block with advanced phases, re-block on a changed phaser set,
// a third party's refresh, clear, tasks and phasers that go away for good —
// and after every step compares FindCycle and CycleThrough for every
// blocked task with the exhaustive oracle, and the live index with one
// rebuilt from scratch. Half the blocks are gates through BlockThrough and
// half the refreshes go through Reregister, also on idle and absent tasks;
// a twin State takes the same steps as SetBlocked, CycleThrough and Clear
// alone, and must answer every gate and hold every status the same. Every
// SetBlocked and Clear must return the count of blocked tasks it leaves.
func TestStateChurnAgainstOracle(t *testing.T) {
	steps := 30000
	if testing.Short() {
		steps = 4000
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, model := NewState(), churnModel{}
		var sc CycleScratch
		// Live task and phaser IDs; retiring one mints a fresh ID, so old
		// ones never come back and their entries and nodes must go.
		tasks := []TaskID{1, 2, 3, 4, 5, 6, 7, 8}
		phasers := []PhaserID{1, 2, 3, 4}
		nextTask, nextPhaser := TaskID(9), PhaserID(5)
		last := map[TaskID]Blocked{} // a task's latest status, blocked or not
		status := func(tk TaskID, regs []Reg) Blocked {
			q := phasers[rng.Intn(len(phasers))]
			return Blocked{Task: tk, WaitsFor: []Resource{{q, int64(1 + rng.Intn(4))}}, Regs: regs}
		}
		randomRegs := func() []Reg {
			var regs []Reg
			for _, q := range phasers {
				if rng.Intn(2) == 0 {
					regs = append(regs, Reg{q, int64(rng.Intn(4))})
				}
			}
			rng.Shuffle(len(regs), func(i, j int) { regs[i], regs[j] = regs[j], regs[i] })
			return regs
		}
		twin := NewState()
		var twinSC CycleScratch
		// counted checks the count a SetBlocked or Clear of st returned
		// against st's Len and the model's size.
		counted := func(st *State, n int) {
			if l := st.Len(); n != l || n != len(model) {
				t.Fatalf("seed %d: a write returned %d blocked tasks; Len %d, the model %d", seed, n, l, len(model))
			}
		}
		set := func(b Blocked) {
			model[b.Task], last[b.Task] = b, b
			if rng.Intn(2) == 0 {
				counted(s, s.SetBlocked(b))
				counted(twin, twin.SetBlocked(b))
				return
			}
			cyc, edges := s.BlockThrough(b, &sc)
			counted(twin, twin.SetBlocked(b))
			wantCyc, wantEdges := twin.CycleThrough(b.Task, &twinSC)
			if (cyc == nil) != (wantCyc == nil) || edges != wantEdges ||
				cyc != nil && !slices.Equal(cyc.Tasks, wantCyc.Tasks) {
				t.Fatalf("seed %d: BlockThrough(%+v) = %v, %d edges; SetBlocked then CycleThrough %v, %d edges",
					seed, b, cyc, edges, wantCyc, wantEdges)
			}
		}
		clearBoth := func(tk TaskID) {
			delete(model, tk)
			counted(s, s.Clear(tk))
			counted(twin, twin.Clear(tk))
		}
		for step := 0; step < steps; step++ {
			tk := tasks[rng.Intn(len(tasks))]
			prev, known := last[tk]
			switch op := rng.Intn(16); {
			case op < 5 && known: // the barrier round: same phasers, later phases
				regs := slices.Clone(prev.Regs)
				for i := range regs {
					regs[i].Phase += int64(rng.Intn(2))
				}
				set(status(tk, regs))
			case op < 7: // a different phaser set
				set(status(tk, randomRegs()))
			case op < 9 && known: // third-party refresh: same wait, one registration more or fewer
				_, isBlocked := model[tk]
				regs := slices.Clone(prev.Regs)
				q := phasers[rng.Intn(len(phasers))]
				if i := slices.IndexFunc(regs, func(r Reg) bool { return r.Phaser == q }); i >= 0 {
					regs = slices.Delete(regs, i, i+1)
				} else {
					regs = append(regs, Reg{q, int64(rng.Intn(4))})
				}
				b := Blocked{Task: tk, WaitsFor: prev.WaitsFor, Regs: regs}
				if rng.Intn(2) == 0 { // a refresh of an idle task is Reregister's to ignore
					if got := s.Reregister(tk, regs); got != isBlocked {
						t.Fatalf("seed %d step %d: Reregister(%d) = %v on a task blocked=%v", seed, step, tk, got, isBlocked)
					}
					if isBlocked {
						model[tk], last[tk] = b, b
						counted(twin, twin.SetBlocked(b))
					}
				} else if isBlocked {
					set(b)
				}
			case op < 10: // Reregister of a task the state has never held
				if s.Reregister(nextTask+TaskID(rng.Intn(4)), randomRegs()) {
					t.Fatalf("seed %d step %d: Reregister of an absent task reported a status", seed, step)
				}
			case op < 14:
				clearBoth(tk)
			case op == 14: // the task ends; a new one takes its place
				clearBoth(tk)
				delete(last, tk)
				tasks[slices.Index(tasks, tk)] = nextTask
				nextTask++
			default: // a phaser vanishes: whoever mentions it resumes
				i := rng.Intn(len(phasers))
				for t2, b := range last {
					if b.WaitsFor[0].Phaser == phasers[i] || slices.ContainsFunc(b.Regs, func(r Reg) bool { return r.Phaser == phasers[i] }) {
						clearBoth(t2)
						delete(last, t2)
					}
				}
				phasers[i] = nextPhaser
				nextPhaser++
			}
			if err := s.checkInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if got, want := s.Snapshot(), twin.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: state %+v, twin %+v", seed, step, got, want)
			}
			o := model.oracle()
			cyc, edges := s.FindCycle(&sc)
			if want := oracle.Deadlocked(o); (cyc != nil) != want {
				t.Fatalf("seed %d step %d: FindCycle = %v, oracle %v\nstate: %+v", seed, step, cyc, want, model)
			}
			if cyc == nil {
				if want := model.expandedEdges(); edges != want {
					t.Fatalf("seed %d step %d: FindCycle examined %d edges, want %d", seed, step, edges, want)
				}
			} else if err := model.checkCycle(cyc.Tasks); err != nil {
				t.Fatalf("seed %d step %d: FindCycle: %v", seed, step, err)
			}
			for bt := range model {
				cyc, edges := s.CycleThrough(bt, &sc)
				if want := oracle.CycleThrough(o, int64(bt)); (cyc != nil) != want {
					t.Fatalf("seed %d step %d: CycleThrough(%d) = %v, oracle %v\nstate: %+v", seed, step, bt, cyc, want, model)
				}
				if cyc == nil {
					if want := model.reachableEdges(bt); edges != want {
						t.Fatalf("seed %d step %d: CycleThrough(%d) examined %d edges, reachable %d", seed, step, bt, edges, want)
					}
					continue
				}
				if cyc.Tasks[0] != bt {
					t.Fatalf("seed %d step %d: cycle %v does not start at %d", seed, step, cyc.Tasks, bt)
				}
				if err := model.checkCycle(cyc.Tasks); err != nil {
					t.Fatalf("seed %d step %d: CycleThrough(%d): %v", seed, step, bt, err)
				}
			}
		}
		if len(s.entries) > len(tasks)+2*minSweep || len(s.phasers) > 2*len(phasers)*minSweep {
			t.Fatalf("seed %d: %d entries and %d phaser nodes left for %d live tasks", seed, len(s.entries), len(s.phasers), len(tasks))
		}
	}
}

// TestStateMemoryBounded: tasks and phasers that block once and never come
// back may not accumulate — neither in the index nor on the heap.
func TestStateMemoryBounded(t *testing.T) {
	s := NewState()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var early uint64
	const n = 100_000
	for i := 1; i <= n; i++ {
		q := PhaserID(i)
		s.SetBlocked(Blocked{Task: TaskID(i), WaitsFor: []Resource{{q, 1}}, Regs: []Reg{{q, 0}, {q + 1, 0}}})
		s.Clear(TaskID(i))
		if i == n/10 {
			early = heap()
		}
	}
	if len(s.tasks) > 2*minSweep || len(s.entries) > 2*minSweep || len(s.phasers) > 4*minSweep {
		t.Fatalf("after %d short-lived tasks: %d tasks, %d entries, %d phaser nodes", n, len(s.tasks), len(s.entries), len(s.phasers))
	}
	if late := heap(); late > early+1<<20 {
		t.Fatalf("heap grew from %d to %d bytes between task %d and task %d", early, late, n/10, n)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// A node that only ever had waiters goes with the last of them, not
	// with a later sweep.
	for i := 1; i <= 10; i++ {
		s.SetBlocked(Blocked{Task: 1, WaitsFor: []Resource{{PhaserID(n + 10 + i), 1}}})
	}
	s.Clear(1)
	for i := 1; i <= 10; i++ {
		if s.phasers[PhaserID(n+10+i)] != nil {
			t.Fatalf("phaser %d has no registration and no waiter, yet its node is kept", n+10+i)
		}
	}
}

// meshStatus is the gen.Mesh shape: 16 registrations per status, on
// phasers task to task+15. The task awaits phaser task+16, on which the
// next 16 tasks are registered and the next one lags, so blocked tasks
// form a chain and never a cycle.
func meshStatus(task TaskID, phase int64) Blocked {
	b := Blocked{Task: task, WaitsFor: []Resource{{PhaserID(task + 16), phase + 1}}}
	for q := 0; q < 16; q++ {
		b.Regs = append(b.Regs, Reg{PhaserID(int(task) + q), phase})
	}
	return b
}

// TestReblockZeroAlloc guards the steady barrier round at 16 registrations
// per status: clear, block again one phase later through the gate, which
// finds no cycle, and refresh the registrations through Reregister,
// allocates nothing.
func TestReblockZeroAlloc(t *testing.T) {
	s := NewState()
	for task := TaskID(1); task <= 8; task++ {
		s.SetBlocked(meshStatus(task, 0))
	}
	b := meshStatus(3, 0)
	var sc CycleScratch
	round := func() {
		s.Clear(b.Task)
		for i := range b.Regs {
			b.Regs[i].Phase++
		}
		b.WaitsFor[0].Phase++
		if cyc, _ := s.BlockThrough(b, &sc); cyc != nil {
			t.Fatalf("the gate found a cycle %v in a chain", cyc)
		}
		if !s.Reregister(b.Task, b.Regs) { // a third party's refresh
			t.Fatal("Reregister lost the status it refreshes")
		}
	}
	for i := 0; i < 2*minSweep; i++ { // past a sweep or two
		round()
	}
	if allocs := testing.AllocsPerRun(2*minSweep, round); allocs != 0 {
		t.Fatalf("re-block with advanced phases allocates %.1f times, want 0", allocs)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGateSearchZeroAlloc guards a gate that passes the pre-filter and
// runs the search: a chain of 64 blocked tasks walked to its dead end.
func TestGateSearchZeroAlloc(t *testing.T) {
	s := NewState()
	var sc CycleScratch
	const n = 64
	for i := 1; i <= n; i++ { // task i awaits phaser i+1 and lags on phaser i
		s.SetBlocked(Blocked{Task: TaskID(i), WaitsFor: []Resource{{PhaserID(i + 1), 1}}, Regs: []Reg{{PhaserID(i), 0}}})
	}
	// The probe lags on a phaser a bystander awaits (so the pre-filter lets
	// it through) and awaits the head of the chain, which ends on a phaser
	// nobody is registered with.
	s.SetBlocked(Blocked{Task: n + 2, WaitsFor: []Resource{{1000, 1}}})
	probe := Blocked{Task: n + 1, WaitsFor: []Resource{{1, 1}}, Regs: []Reg{{1000, 0}}}
	gate := func() {
		if cyc, edges := s.BlockThrough(probe, &sc); cyc != nil || edges != n {
			t.Fatalf("gate: cycle %v, %d edges; want none and %d", cyc, edges, n)
		}
		s.Clear(probe.Task)
	}
	gate()
	if allocs := testing.AllocsPerRun(2*minSweep, gate); allocs != 0 {
		t.Fatalf("gate with a search allocates %.1f times, want 0", allocs)
	}
}

// TestStateRaceMix runs every operation from 8 goroutines on shared tasks
// and phasers (meaningful under -race), then checks the index.
func TestStateRaceMix(t *testing.T) {
	s := NewState()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var sc CycleScratch
			var buf []Blocked
			for i := 0; i < 4000; i++ {
				task := TaskID(1 + rng.Intn(24))
				q := PhaserID(1 + rng.Intn(6))
				regs := []Reg{{q, int64(rng.Intn(3))}, {PhaserID(1 + rng.Intn(6)), int64(rng.Intn(3))}}
				b := Blocked{Task: task, WaitsFor: []Resource{{q, int64(1 + rng.Intn(3))}}, Regs: regs}
				switch rng.Intn(11) {
				case 0, 1:
					s.SetBlocked(b)
				case 2:
					if cyc, _ := s.BlockThrough(b, &sc); cyc != nil && cyc.Tasks[0] != task {
						t.Errorf("cycle %v does not start at %d", cyc.Tasks, task)
					}
				case 3:
					s.Reregister(task, regs)
				case 4, 5:
					s.Clear(task)
				case 6, 7:
					if cyc, _ := s.CycleThrough(task, &sc); cyc != nil && cyc.Tasks[0] != task {
						t.Errorf("cycle %v does not start at %d", cyc.Tasks, task)
					}
				case 8:
					if n := s.Len(); n < 0 || n > 24 {
						t.Errorf("Len %d with 24 tasks", n)
					}
				default:
					buf = s.SnapshotInto(buf)
				}
			}
		}()
	}
	wg.Wait()
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCycleScratchEpochWrap: when the visit stamp wraps around, marks left
// by searches 2^32 epochs ago must not read as visited or finished.
func TestCycleScratchEpochWrap(t *testing.T) {
	s := NewState()
	for _, b := range example41() {
		s.SetBlocked(b)
	}
	sc := CycleScratch{epoch: math.MaxUint32 - 7}
	for i := 0; i < 6; i++ {
		if cyc, _ := s.CycleThrough(4, &sc); cyc == nil {
			t.Fatalf("search %d (epoch %d) missed the deadlock of Example 4.1", i, sc.epoch)
		}
		if cyc, _ := s.FindCycle(&sc); cyc == nil {
			t.Fatalf("full search %d (epoch %d) missed the deadlock of Example 4.1", i, sc.epoch)
		}
	}
	s.Clear(4) // the workers now wait on each other's dead end
	for i := 0; i < 3; i++ {
		if cyc, _ := s.CycleThrough(1, &sc); cyc != nil {
			t.Fatalf("search %d (epoch %d) found %v in a deadlock-free state", i, sc.epoch, cyc.Tasks)
		}
		if cyc, _ := s.FindCycle(&sc); cyc != nil {
			t.Fatalf("full search %d (epoch %d) found %v in a deadlock-free state", i, sc.epoch, cyc.Tasks)
		}
	}
}

// TestFindCycleOnePass: on a deadlock-free dependency chain of 512 tasks,
// each task is expanded once — the search examines no more than twice the
// WFG's edges (a search restarted from every task examines about n²/2) —
// and a warm scratch allocates nothing. Closing the chain into a ring is
// found.
func TestFindCycleOnePass(t *testing.T) {
	const n = 512
	var snap []Blocked
	for i := 0; i < n; i++ { // task i awaits phaser i+1 and lags on phaser i
		snap = append(snap, Blocked{Task: TaskID(i), WaitsFor: []Resource{{PhaserID(i + 1), 1}}, Regs: []Reg{{PhaserID(i), 0}}})
	}
	s := NewState()
	for _, b := range snap {
		s.SetBlocked(b)
	}
	var sc CycleScratch
	wfg := BuildWFG(snap).Graph.NumEdges()
	cyc, edges := s.FindCycle(&sc)
	if cyc != nil || edges > 2*wfg {
		t.Fatalf("chain of %d: cycle %v after %d edges; want none within 2 × %d", n, cyc, edges, wfg)
	}
	if allocs := testing.AllocsPerRun(20, func() { s.FindCycle(&sc) }); allocs != 0 {
		t.Fatalf("a warm full search allocates %.1f times, want 0", allocs)
	}
	s.SetBlocked(Blocked{Task: n, WaitsFor: []Resource{{0, 1}}, Regs: []Reg{{n, 0}}})
	if cyc, _ := s.FindCycle(&sc); cyc == nil || len(cyc.Tasks) != n+1 {
		t.Fatalf("ring of %d: FindCycle = %v", n+1, cyc)
	}
}

// TestShortLivedTasksZeroAlloc: a stream of tasks that each block once on
// long-lived phasers reuses the entries the sweep reclaimed.
func TestShortLivedTasksZeroAlloc(t *testing.T) {
	s := NewState()
	s.SetBlocked(Blocked{Task: 1, WaitsFor: []Resource{{1, 1}}, Regs: []Reg{{1, 0}, {2, 0}}})
	next := TaskID(2)
	once := func() {
		s.SetBlocked(Blocked{Task: next, WaitsFor: []Resource{{2, 1}}, Regs: []Reg{{1, 1}, {2, 0}}})
		s.Clear(next)
		next++
	}
	for i := 0; i < 4*minSweep; i++ {
		once()
	}
	if allocs := testing.AllocsPerRun(4*minSweep, once); allocs != 0 {
		t.Fatalf("a short-lived task allocates %.2f times, want 0", allocs)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
