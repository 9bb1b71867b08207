package pl

import (
	"math/rand"
	"slices"
	"testing"

	"armus/internal/sim/oracle"
)

// TestTotallyDeadlockedSubsetAgreesWithSimOracle ties Definition 3.2 as PL
// states it — TotallyDeadlockedSubset over a machine state (M, T) — to
// sim/oracle.StuckSet, the oracle every pipeline is differential-tested
// against. Random states of up to 8 tasks on up to 4 phasers: each task
// registered with a random subset at random phases, and most of those with
// a registration awaiting one of their phasers, the rest running. The
// oracle sees the same state as its blocked tasks' awaits and registration
// vectors; both must name the same greatest totally deadlocked set.
func TestTotallyDeadlockedSubsetAgreesWithSimOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	deadlocked := 0
	const states = 5000
	for i := 0; i < states; i++ {
		tasks, phasers := 1+rng.Intn(8), 1+rng.Intn(4)
		s := &State{M: map[PhaserName]Phaser{}, T: map[TaskName]*Thread{}}
		for p := 1; p <= phasers; p++ {
			s.M[PhaserName(p)] = Phaser{}
		}
		o := oracle.NewState()
		for tk := TaskName(1); tk <= TaskName(tasks); tk++ {
			regs := map[int64]int64{}
			var mine []PhaserName
			for p := PhaserName(1); p <= PhaserName(phasers); p++ {
				if rng.Intn(3) > 0 {
					n := int64(rng.Intn(4))
					s.M[p][tk] = n
					regs[int64(p)] = n
					mine = append(mine, p)
				}
			}
			th := &Thread{Env: map[string]Value{}, Cont: Seq{Skip{}}, Started: true}
			if len(mine) > 0 && rng.Intn(4) > 0 {
				p := mine[rng.Intn(len(mine))]
				th.Env["p"] = Value{Kind: KindPhaser, ID: int(p)}
				th.Cont = Seq{Await{Phaser: "p"}}
				o.AddBlocked(int64(tk), oracle.Await{Phaser: int64(p), Phase: s.M[p][tk]}, regs)
			}
			s.T[tk] = th
		}
		got := []int64{}
		for _, tk := range TotallyDeadlockedSubset(s) {
			got = append(got, int64(tk))
		}
		want := oracle.StuckSet(o)
		if !slices.Equal(got, want) {
			t.Fatalf("state %d: pl says %v, sim/oracle says %v\nM = %v", i, got, want, s.M)
		}
		if len(want) > 0 {
			deadlocked++
		}
	}
	// Both verdicts must be well represented, or the agreement says little.
	if deadlocked < states/20 || deadlocked > states*19/20 {
		t.Fatalf("%d of %d states deadlocked", deadlocked, states)
	}
}
