package core

import (
	"sync"
	"testing"
)

// BenchmarkGroupsAdvance is the lib-barrier program of the repository
// benchmark as a go test: 16 goroutine tasks doing Advance rounds on four
// phasers (everyone, each half, the even tasks), unchecked, recording only,
// recording under the periodic detector and under the avoidance gate. One
// op is one Advance. Run it with -cpu 1,2,4: it is the check that the
// single lock of deps.State costs the library nothing when its tasks
// really run in parallel.
func BenchmarkGroupsAdvance(b *testing.B) {
	const tasks = 16
	groups := [4]func(i int) bool{
		func(int) bool { return true },
		func(i int) bool { return i < tasks/2 },
		func(i int) bool { return i >= tasks/2 },
		func(i int) bool { return i%2 == 0 },
	}
	for _, mode := range []Mode{ModeOff, ModeObserve, ModeDetect, ModeAvoid} {
		b.Run(mode.String(), func(b *testing.B) {
			v := New(WithMode(mode))
			defer v.Close()
			ts := make([]*Task, tasks)
			for i := range ts {
				ts[i] = v.NewTask("")
			}
			var ps [len(groups)]*Phaser
			var first [len(groups)]*Task
			perRound := 0
			for q, in := range groups {
				for i, t := range ts {
					if !in(i) {
						continue
					}
					perRound++
					if first[q] == nil {
						first[q], ps[q] = t, v.NewPhaser(t)
					} else if err := ps[q].Register(first[q], t); err != nil {
						b.Fatal(err)
					}
				}
			}
			rounds := b.N/perRound + 1
			var wg sync.WaitGroup
			b.ResetTimer()
			for i, t := range ts {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer t.Terminate()
					for r := 0; r < rounds; r++ {
						for q, in := range groups {
							if !in(i) {
								continue
							}
							if err := ps[q].Advance(t); err != nil {
								b.Error(err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
