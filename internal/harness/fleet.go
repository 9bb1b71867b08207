package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/server"
	"armus/internal/store"
	"armus/internal/trace"
	"armus/internal/workloads/npb"
)

// fleetServers and fleetClients shape the chaos run: a 3-server fleet
// under 32 concurrent parity-checking sessions, one server killed mid-run.
const (
	fleetServers = 3
	fleetClients = 32
)

// RunFleet benchmarks fleet failover end to end: three armus-serve
// instances share one armus-store, 32 clients route their sessions across
// them by rendezvous hashing and continuously replay a recorded CG trace
// through the avoidance gate with decision-for-decision parity checking
// (client.ReplayTrace). Once every client is in steady state, server 1 is
// killed abruptly — no drain, no goodbye — and the run keeps going:
// orphaned sessions fail over along the rendezvous rank, rehydrate from
// the store snapshot, and the client resync closes the snapshot gap. ANY
// verdict divergence fails the experiment. Reported per phase (before the
// kill, the 1s recovery window after it, after): aggregate ingest
// throughput and sessions rehydrated from snapshots.
func RunFleet(o Options) (*Table, error) {
	o.defaults()
	rec := trace.NewRecorder()
	rec.SetLabel(fmt.Sprintf("harness: npb CG (%d tasks, class %d, avoid)", o.TasksPerSite*2, o.Class))
	v := core.New(core.WithMode(core.ModeAvoid), core.WithTraceRecorder(rec))
	if _, err := npb.RunCG(v, npb.Config{Tasks: o.TasksPerSite * 2, Class: o.Class}); err != nil {
		v.Close()
		return nil, fmt.Errorf("fleet: recording CG: %w", err)
	}
	v.Close()
	tr := rec.Trace()

	stSrv, err := store.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fleet: store: %w", err)
	}
	defer stSrv.Close()
	servers := make([]*server.Server, fleetServers)
	addrs := make([]string, fleetServers)
	for i := range servers {
		s, err := server.New(server.Config{
			Addr: "127.0.0.1:0", Logf: func(string, ...any) {},
			// The serve-default snapshot cadence: avoid-mode batches are tiny
			// (every gated block round-trips), so a more aggressive cadence
			// just overloads the single persister — a chronically full queue
			// means every write lands seconds stale and failover fetches race
			// ahead of the drain.
			StoreAddr: stSrv.Addr(), SnapshotEvery: 64,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: server %d: %w", i, err)
		}
		defer s.Close()
		servers[i] = s
		addrs[i] = s.Addr()
	}

	type iterRec struct {
		events int
		done   time.Duration // completion offset from run start
	}
	var mu sync.Mutex
	var iters []iterRec
	var ready atomic.Int64 // clients that completed their first iteration
	stop := make(chan struct{})
	errs := make([]error, fleetClients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < fleetClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				c, err := client.Dial(client.Config{
					Fleet:         addrs,
					Session:       fmt.Sprintf("fleet-c%d-i%d", i, it),
					Mode:          core.ModeAvoid,
					RedialBackoff: 5 * time.Millisecond, DialTimeout: 2 * time.Second,
				})
				if err != nil {
					errs[i] = fmt.Errorf("client %d iter %d: dial: %w", i, it, err)
					return
				}
				st, rerr := client.ReplayTrace(c, tr, client.ReplayOptions{})
				c.Close()
				if rerr != nil {
					errs[i] = fmt.Errorf("client %d iter %d: %w", i, it, rerr)
					return
				}
				mu.Lock()
				iters = append(iters, iterRec{st.Events, time.Since(start)})
				mu.Unlock()
				if it == 0 {
					ready.Add(1)
				}
			}
		}(i)
	}

	rehydratedAcross := func() int64 {
		var n int64
		for i := 1; i < fleetServers; i++ { // survivors only (victim is 0)
			n += servers[i].Metrics().SessionsRehydrated.Load()
		}
		return n
	}

	// Steady state: every client has at least one full parity-checked
	// replay behind it.
	for deadline := time.Now().Add(30 * time.Second); ready.Load() < fleetClients; {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("fleet: clients not in steady state within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Land the kill MID-iteration, not at the boundary `ready` marks: wait
	// until the victim has persisted snapshots for the in-flight sessions
	// (post-steady-state persists can only come from them), so failover has
	// something to rehydrate. Timeout falls through — the kill happens
	// regardless; it just may rehydrate nothing.
	persistedAtReady := servers[0].Metrics().SnapshotsPersisted.Load()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline) &&
		servers[0].Metrics().SnapshotsPersisted.Load() < persistedAtReady+32; {
		time.Sleep(2 * time.Millisecond)
	}
	tKill := time.Since(start)
	servers[0].Close() // the kill: abrupt, mid-run, no goodbye
	const recovery = time.Second
	time.Sleep(recovery)
	tAfter := time.Since(start)
	rehydratedDuring := rehydratedAcross()
	time.Sleep(time.Second)
	close(stop)
	wg.Wait()
	tEnd := time.Since(start)
	rehydratedTotal := rehydratedAcross()
	for i := range errs {
		if errs[i] != nil {
			return nil, fmt.Errorf("fleet: divergence/failure: %w", errs[i])
		}
	}

	phase := func(from, to time.Duration) (int, float64) {
		events := 0
		for _, r := range iters {
			if r.done > from && r.done <= to {
				events += r.events
			}
		}
		return events, float64(events) / (to - from).Seconds()
	}
	t := &Table{
		Title: fmt.Sprintf("Fleet: %d servers + shared store, %d clients replaying a %d-event CG trace via rendezvous routing; server 1 killed mid-run, zero divergences required",
			fleetServers, fleetClients, len(tr.Events)),
		Header: []string{"Phase", "Window", "Events", "Events/s", "Rehydrated"},
	}
	for _, p := range []struct {
		name       string
		from, to   time.Duration
		rehydrated int64
	}{
		{"before kill", 0, tKill, 0},
		{"during recovery", tKill, tAfter, rehydratedDuring},
		{"after", tAfter, tEnd, rehydratedTotal},
	} {
		events, perSec := phase(p.from, p.to)
		t.Rows = append(t.Rows, []string{
			p.name, Dur(p.to - p.from),
			fmt.Sprintf("%d", events), fmt.Sprintf("%.0f", perSec),
			fmt.Sprintf("%d", p.rehydrated),
		})
	}
	t.Fprint(o.Out)
	return t, nil
}
