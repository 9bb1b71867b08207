package server

import (
	"fmt"
	"sync"
	"testing"

	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/deps"
)

// BenchmarkSessionFanIn measures one detection session fed by 1 and by 16
// SDK connections: the multi-core shapes the repository benchmark (one
// CPU, one connection) cannot see. Each connection blocks and unblocks its
// own 8 tasks on its own phasers, arrived at the awaited phase so that no
// cycle forms, and checkpoints every 128 mutations; b.N counts mutations
// over all connections. Run it with -cpu 2 or more:
//
//	go test -run '^$' -bench SessionFanIn -cpu 2 ./internal/server/
func BenchmarkSessionFanIn(b *testing.B) {
	const (
		tasks      = 8
		checkEvery = 128
	)
	for _, conns := range []int{1, 16} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			s, err := New(Config{Addr: "127.0.0.1:0", Logf: func(string, ...any) {}})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			cs := make([]*client.Client, conns)
			for i := range cs {
				if cs[i], err = client.Dial(client.Config{Addr: s.Addr(), Session: "fan-in", Mode: core.ModeDetect}); err != nil {
					b.Fatal(err)
				}
				defer cs[i].Close()
			}
			per := (b.N + conns - 1) / conns
			b.ResetTimer()
			var wg sync.WaitGroup
			for i, c := range cs {
				wg.Add(1)
				go func(i int, c *client.Client) {
					defer wg.Done()
					base := int64(i * tasks)
					st := make([]deps.Blocked, tasks)
					for k := range st {
						q := base + int64(k) + 1
						st[k] = status(q, []deps.Resource{res(q, 0)}, []deps.Reg{reg(q, 0)})
					}
					for m := 0; m < per; m++ {
						k := m / 2 % tasks
						var err error
						if m%2 == 0 {
							st[k].WaitsFor[0].Phase++
							st[k].Regs[0].Phase++
							err = c.Block(st[k])
						} else {
							err = c.Unblock(st[k].Task)
						}
						if err == nil && (m+1)%checkEvery == 0 {
							_, err = c.Checkpoint()
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
					// A last checkpoint: everything sent is applied.
					if d, err := c.Checkpoint(); err != nil || d {
						b.Errorf("final checkpoint: deadlocked %v, %v", d, err)
					}
				}(i, c)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(s.m.Events.Load())/b.Elapsed().Seconds(), "events/s")
		})
	}
}
