package deps_test

import (
	"sync/atomic"
	"testing"

	"armus/internal/deps"
)

// BenchmarkStateChurnParallel is detection-mode traffic on a phaser-heavy
// state from GOMAXPROCS goroutines at once: each owns a task of the mesh
// shape (16 registrations per status, on phasers shared with its
// neighbours), blocks it one phase later and clears it, and takes the
// checker's snapshot every 256 rounds. One op is one block/clear pair. Run
// it with -cpu 1,2,4: it is the case sharding was for, so it is where one
// lock has to show it is not slower.
func BenchmarkStateChurnParallel(b *testing.B) {
	s := deps.NewState()
	var nextTask atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		task := nextTask.Add(1)
		st := deps.Blocked{Task: deps.TaskID(task), WaitsFor: []deps.Resource{{Phaser: deps.PhaserID(task)}}}
		for q := int64(0); q < 16; q++ {
			st.Regs = append(st.Regs, deps.Reg{Phaser: deps.PhaserID(task + q)})
		}
		var snap []deps.Blocked
		for round := 1; pb.Next(); round++ {
			st.WaitsFor[0].Phase++
			st.Regs[round%16].Phase++
			s.SetBlocked(st)
			s.Clear(st.Task)
			if round%256 == 0 {
				snap = s.SnapshotInto(snap)
			}
		}
	})
}
