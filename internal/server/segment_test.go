package server

import (
	"bytes"
	"testing"

	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/segment"
	"armus/internal/trace"
	"armus/internal/trace/replay"
)

// TestSegmentArchiveEndToEnd is the tentpole acceptance path in
// miniature: drive real client traffic (avoidance with gate rejections
// plus detection) through a server with -segment-dir enabled, shut the
// server down (which seals every segment), then query the archive for a
// known verdict transition and replay the exported, stitched trace
// through every pipeline.
func TestSegmentArchiveEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, Config{SegmentDir: dir})

	corpus := corpusTraces(t)
	// sim-seed31-avoid is the corpus trace whose avoidance replay trips a
	// gate rejection — the verdict transition the query below must find.
	avoidTrace, detectTrace := corpus["sim-seed31-avoid.trace"], corpus["npb-ft-detect.trace"]
	if avoidTrace == nil || detectTrace == nil {
		t.Fatal("corpus traces missing")
	}

	ca := dialTest(t, s, client.Config{Session: "arch-avoid", Mode: core.ModeAvoid})
	stA, err := client.ReplayTrace(ca, avoidTrace, client.ReplayOptions{CheckEvery: 4})
	if err != nil {
		t.Fatalf("avoid replay: %v", err)
	}
	ca.Close()
	cd := dialTest(t, s, client.Config{Session: "arch-detect", Mode: core.ModeDetect})
	if _, err := client.ReplayTrace(cd, detectTrace, client.ReplayOptions{CheckEvery: 4}); err != nil {
		t.Fatalf("detect replay: %v", err)
	}
	cd.Close()

	snap := s.Metrics()
	if snap.Segment.Events.Load() == 0 || snap.Segment.Batches.Load() == 0 {
		t.Fatalf("tee archived nothing: %+v", snap.Segment)
	}
	s.Close() // seals every active segment

	refs, err := segment.Scan(dir, false, nil)
	if err != nil || len(refs) < 2 {
		t.Fatalf("Scan: %v, %d refs (want both sessions)", err, len(refs))
	}

	// Query: the avoid session must expose the gate rejections the server
	// computed, as empty-task verdict annotations carrying the refused
	// status, discoverable via the footer index alone.
	sel := segment.Select(refs, segment.Filter{Session: "arch-avoid", VerdictsOnly: true})
	if len(sel) == 0 {
		t.Fatal("no verdict-bearing segment for arch-avoid")
	}
	var rejections int64
	for _, r := range sel {
		sg, err := segment.Open(r.Path)
		if err != nil {
			t.Fatal(err)
		}
		err = sg.EachVerdict(func(ord int64, e *trace.Event) error {
			if e.Verdict == trace.VerdictRejected && len(e.Tasks) == 0 {
				rejections++
			}
			return nil
		})
		sg.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if stA.Rejections == 0 || rejections != int64(stA.Rejections) {
		t.Fatalf("archived %d gate rejections, client saw %d", rejections, stA.Rejections)
	}

	// Export: stitch each session back into one trace and replay it
	// verdict-for-verdict through all three pipelines.
	for _, session := range []string{"arch-avoid", "arch-detect"} {
		var buf bytes.Buffer
		events, segs, err := segment.Stitch(&buf, dir, session, nil)
		if err != nil {
			t.Fatalf("%s: Stitch: %v", session, err)
		}
		if events == 0 || segs == 0 {
			t.Fatalf("%s: empty export (%d events, %d segments)", session, events, segs)
		}
		tr, err := trace.Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: exported trace does not decode: %v", session, err)
		}
		results, err := replay.VerifyAll(tr, replay.Options{}, replay.Pipelines()...)
		if err != nil {
			t.Fatalf("%s: exported trace fails replay: %v", session, err)
		}
		for _, r := range results {
			if r.Events == 0 {
				t.Fatalf("%s: pipeline %v replayed no events", session, r.Pipeline)
			}
		}
	}
}
