package server

import (
	"fmt"
	"sync"
	"testing"

	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/trace"
)

// BenchmarkTeeIngest measures the segment tee's ingest overhead in
// isolation: 64 concurrent avoidance sessions replay the CG corpus
// trace against a server with archiving off, then on. This is the
// profiling entry point for the tee path (`go test -bench TeeIngest
// -cpuprofile ...`); the end-to-end numbers are the repository
// benchmark's serve-stream workload and its segment.* ladder rungs.
func BenchmarkTeeIngest(b *testing.B) {
	tr, err := trace.ReadFile("../../testdata/corpus/npb-cg-avoid.trace")
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"off", "on"} {
		dir := ""
		if name == "on" {
			dir = b.TempDir()
		}
		b.Run(name, func(b *testing.B) {
			s, err := New(Config{Addr: "127.0.0.1:0", Logf: func(string, ...any) {}, SegmentDir: dir})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				var wg sync.WaitGroup
				for i := 0; i < 64; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						c, err := client.Dial(client.Config{Addr: s.Addr(), Session: fmt.Sprintf("b-%s-%d-%d", name, it, i), Mode: core.ModeAvoid})
						if err != nil {
							b.Error(err)
							return
						}
						defer c.Close()
						if _, err := client.ReplayTrace(c, tr, client.ReplayOptions{CheckEvery: 32}); err != nil {
							b.Error(err)
						}
					}(i)
				}
				wg.Wait()
			}
		})
	}
}
