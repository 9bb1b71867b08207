package replay

import (
	"path/filepath"
	"testing"

	"armus/internal/deps"
	"armus/internal/dist"
	"armus/internal/engine"
	"armus/internal/trace"
)

// TestSnapshotRehydrateParity is the differential check behind the fleet
// failover path (internal/server/persist.go): for every corpus trace, the
// live state is persisted at each settle point through the chain writer the
// server persists sessions with (dist.Chain: alternating full bases and
// cumulative deltas, stale deltas left in place across base rewrites), then
// read back with the server's reader (dist.DecodeChain) and rehydrated into
// a FRESH engine, whose verdict must equal the uninterrupted Detect pipeline's verdict at that
// mutation. Definition 4.1 is the claim under test: a session's verifier
// state IS its blocked-status set, so snapshot→rehydrate loses nothing
// verdict-relevant at any point of any recorded execution.
func TestSnapshotRehydrateParity(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "..", "testdata", "corpus", "*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no corpus traces found (testdata/corpus is part of the repo)")
	}
	const checkEvery = 16 // settle cadence between forced checks
	const fullEvery = 4   // deltas riding one full base
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			tr, err := trace.ReadFile(path)
			if err != nil {
				t.Fatalf("unreadable: %v", err)
			}
			ref, err := ReplayTrace(tr, Detect, Options{})
			if err != nil {
				t.Fatalf("reference replay: %v", err)
			}

			live := engine.New(false)
			// The server's own writer and reader (dist.Chain, DecodeChain)
			// over the store's two fields. As in the store, a base write
			// does NOT clear the delta field — the reader must ignore a
			// stale delta by sequence mismatch.
			chain := dist.NewChain(0, fullEvery, 0)
			fields := map[string][]byte{}
			persist := func() {
				if field, val := chain.Next(live.State(), nil); field != "" {
					fields[field] = val
				}
			}
			rehydrate := func() []deps.Blocked {
				snap, _, err := dist.DecodeChain(fields["base"], fields["delta"])
				if err != nil {
					t.Fatalf("decode chain: %v", err)
				}
				return snap
			}

			mut := 0
			checked := 0
			check := func() {
				persist()
				fresh := engine.New(false)
				fresh.Restore(rehydrate()...)
				got := fresh.Check() != nil
				if want := ref.Verdicts[mut-1]; got != want {
					t.Fatalf("mutation %d: rehydrated verifier says deadlocked=%v, uninterrupted pipeline says %v",
						mut-1, got, want)
				}
				checked++
			}

			for _, ev := range tr.Events {
				switch ev.Kind {
				case trace.KindBlock:
					live.Block(ev.Status)
				case trace.KindUnblock:
					live.Unblock(ev.Task)
				default:
					continue
				}
				mut++
				// Settle points: every verdict transition, every checkEvery
				// mutations, and (below) end of trace — the Dist pipeline's
				// settle schedule.
				transition := mut >= 2 && ref.Verdicts[mut-1] != ref.Verdicts[mut-2]
				if transition || mut%checkEvery == 0 {
					check()
				}
			}
			if mut != ref.Mutations {
				t.Fatalf("drove %d mutations, reference saw %d", mut, ref.Mutations)
			}
			if mut > 0 {
				check() // end-of-trace settle
			}
			if checked == 0 {
				t.Fatal("no settle points checked")
			}
		})
	}
}
