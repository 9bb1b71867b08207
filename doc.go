// Package armus is a dynamic deadlock verification library for barrier
// synchronisation in Go — a from-scratch reproduction of "Dynamic deadlock
// verification for general barrier synchronisation" (Cogumbreiro, Hu,
// Martins, Yoshida; PPoPP 2015).
//
// # Overview
//
// Armus provides phasers — the general barrier abstraction that subsumes
// cyclic barriers, join barriers (fork/join, finish), countdown latches,
// X10-style clocks and clocked variables — with built-in deadlock
// verification in two modes:
//
//   - detection: a background checker periodically samples the blocked
//     tasks and reports existing deadlocks;
//   - avoidance: each blocking operation checks first and returns a
//     *DeadlockError instead of deadlocking, deregistering the failing
//     task so the application can recover.
//
// Verification is sound and complete with respect to the paper's core
// language PL: a deadlock is reported if and only if the program state is
// deadlocked in the sense of its Definition 3.2 (mutual waiting among
// blocked tasks). Every check searches an incrementally maintained index of
// the event-based blocked statuses for a Wait-For-Graph cycle — the
// avoidance gate from the blocking task only, sub-microsecond and
// allocation-free in steady state, a full scan in one pass. The paper's
// Wait-For and State Graphs, selected adaptively, are the reference it is
// tested and timed against (see DESIGN.md "Adaptive model selection" and
// "Hot path", and the repository benchmark, benchmark/README.md).
//
// # Quick start
//
//	v := armus.New(armus.WithMode(armus.ModeAvoid))
//	defer v.Close()
//
//	main := v.NewTask("main")
//	barrier := v.NewPhaser(main)      // main is registered at phase 0
//	worker := v.NewTask("worker")
//	barrier.Register(main, worker)    // worker inherits main's phase
//
//	go func() {
//	    if err := barrier.Advance(worker); err != nil {
//	        var de *armus.DeadlockError
//	        if errors.As(err, &de) { /* recover */ }
//	    }
//	}()
//	barrier.Advance(main)             // synchronise
//
// For distributed programs, every site creates a Site connected to a
// shared Store (see NewStoreServer, NewSite); sites publish their blocked
// statuses and each independently checks the merged global view —
// one-phase, fault-tolerant distributed deadlock detection.
//
// Any verifier can additionally record its full transition trace
// (WithTraceWriter): a compact, CRC-footed binary log of every register /
// arrive / drop / block / unblock and every delivered verdict, replayable
// verdict-for-verdict through all verification pipelines with the
// armus-trace tool (see DESIGN.md "Trace record/replay" and
// testdata/corpus).
//
// # Layout
//
// The implementation lives under internal/ (graph, deps, core, barrier,
// clocked, pl, store, dist, trace, workloads, harness); this package
// re-exports the public surface. DESIGN.md maps each paper section to a
// module and EXPERIMENTS.md records the reproduced evaluation.
package armus
