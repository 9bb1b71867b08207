package server

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/segment"
	"armus/internal/server/proto"
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

// TestArchiveHoldsWhatArrived streams one detection session over a
// net.Pipe, with the tee on, as bytes written by hand: an unblock whose task
// and a block whose phase are varints one byte longer than they need be, a
// frame long enough for a two-byte length prefix, checkpoints in the middle
// of batches, a deadlock that forms and dissolves, register, arrive and
// drop frames, and all of it in one write several reader windows long, so
// that the window slides in the middle of a batch. The archive must read
// back as the events that were sent, in order, with the index's verdict
// ordinals on the verdict events, and the export must replay to the
// verdicts the sent trace replays to. events_total must count every frame,
// though the structural ones took no slot in a batch. The
// stream goes once in full frames and once with re-blocks wherever the SDK
// would send them, long enough to fill more than one archive block. Either
// way the tee archives a block as a re-block wherever its reference lies in
// its batch, so the archive is smaller than the events in full frames, and
// in full where it does not, so every block decodes on its own.
func TestArchiveHoldsWhatArrived(t *testing.T) {
	for _, reblocks := range []bool{false, true} {
		name := "full"
		if reblocks {
			name = "reblocks"
		}
		t.Run(name, func(t *testing.T) { archiveHoldsWhatArrived(t, reblocks) })
	}
}

func archiveHoldsWhatArrived(t *testing.T, reblocks bool) {
	dir := t.TempDir()
	// The stream carries some 450 checkpoints, and net.Pipe delivers their
	// answers only as fast as the discarding reader runs: fewer than
	// maxBacklog keeps the slow-consumer policy, which is not under test
	// here, from closing the pipe.
	s := testServer(t, Config{SegmentDir: dir})
	const session = "verbatim"

	var wire bytes.Buffer
	tw, err := trace.NewWriter(&wire, proto.Handshake{Session: session}.Label(), uint8(core.ModeDetect))
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	handshake := wire.Len()
	var framer sdkFramer
	fullLen := 0
	send := func(e trace.Event) {
		t.Helper()
		frames, err := trace.AppendEventFrame(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		fullLen += len(frames)
		if reblocks {
			frames = framer.append(t, nil, e)
		}
		if err := tw.WriteFrames(frames); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint := trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported}
	// Task 1 blocks with a registration vector of 70 phasers: a frame of
	// more than 127 bytes.
	wide := status(1, []deps.Resource{res(1, 1)}, []deps.Reg{reg(1, 1)})
	for q := int64(100); q < 170; q++ {
		wide.Regs = append(wide.Regs, reg(q, 0))
	}
	send(trace.Event{Kind: trace.KindBlock, Task: 1, Status: wide})
	// Task 5 unblocks, its ID (zig-zag 10) spelt 0x8a 0x00 instead of 0x0a.
	if err := tw.WriteFrames([]byte{3, byte(trace.KindUnblock), 0x8a, 0x00}); err != nil {
		t.Fatal(err)
	}
	fullLen += 4
	// Task 6 blocks twice on phasers 4 and 5, the second frame spelling its
	// phase of phaser 4 (zig-zag 4) as 0x84 0x00. The tee archives it as a
	// re-block of the first, which must decode to the event that was sent.
	for _, frame := range [][]byte{
		{10, byte(trace.KindBlock), 12, 1, 8, 2, 2, 8, 2, 10, 0},
		{11, byte(trace.KindBlock), 12, 1, 8, 4, 2, 8, 0x84, 0x00, 10, 0},
	} {
		if err := tw.WriteFrames(frame); err != nil {
			t.Fatal(err)
		}
		fullLen += len(frame)
	}
	framer.ord += 2 // the framer numbers block frames as the stream does
	send(checkpoint)
	// Rounds of two tasks on two phasers; in every eighth they wait for each
	// other, with a checkpoint while they do and one after. Both arrive
	// before they block, and task 4 registers with phaser 200 and drops
	// out again every fifth round: structural frames, which the archive
	// holds and the batches do not.
	for round := int64(1); wire.Len() < 72<<10; round++ {
		send(trace.Event{Kind: trace.KindArrive, Task: 2, Phaser: 2, Phase: round})
		send(trace.Event{Kind: trace.KindArrive, Task: 3, Phaser: 3, Phase: round})
		if round%5 == 0 {
			send(trace.Event{Kind: trace.KindRegister, Task: 4, Phaser: 200, Phase: round, Mode: 1})
			send(trace.Event{Kind: trace.KindDrop, Task: 4, Phaser: 200})
		}
		a := status(2, []deps.Resource{res(2, round)}, []deps.Reg{reg(2, round), reg(3, round)})
		b := status(3, []deps.Resource{res(3, round)}, []deps.Reg{reg(2, round), reg(3, round)})
		if round%8 == 0 {
			a.Regs[1].Phase, b.Regs[0].Phase = round-1, round-1
		}
		send(trace.Event{Kind: trace.KindBlock, Task: 2, Status: a})
		send(trace.Event{Kind: trace.KindBlock, Task: 3, Status: b})
		if round%8 == 0 {
			send(checkpoint)
		}
		send(trace.Event{Kind: trace.KindUnblock, Task: 2})
		send(trace.Event{Kind: trace.KindUnblock, Task: 3})
		if round%8 == 0 {
			send(checkpoint)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	sent, err := trace.Decode(wire.Bytes())
	if err != nil {
		t.Fatalf("the stream as written does not decode: %v", err)
	}
	if sent.Events[1].Kind != trace.KindUnblock || sent.Events[1].Task != 5 {
		t.Fatalf("the long varint decodes to %v", sent.Events[1])
	}
	if e := sent.Events[3]; e.Task != 6 || len(e.Status.Regs) != 2 || e.Status.Regs[0].Phase != 2 {
		t.Fatalf("the long phase varint decodes to %v", e)
	}

	client, server := net.Pipe()
	s.wg.Add(1)
	go s.handleConn(server)
	go io.Copy(io.Discard, client) // hello and checkpoint answers
	// The handshake, then everything else in one write: the reader takes it
	// a window at a time, and a batch goes on while the window holds bytes.
	for _, part := range [][]byte{wire.Bytes()[:handshake], wire.Bytes()[handshake:]} {
		if _, err := client.Write(part); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	s.Close() // waits for the connection, seals the segment
	m := s.Metrics()
	if m.MalformedConns.Load() != 0 || m.SlowDisconnects.Load() != 0 {
		t.Fatalf("%d connections refused as malformed, %d as slow", m.MalformedConns.Load(), m.SlowDisconnects.Load())
	}
	// Every frame is counted; only the blocks, unblocks and checkpoints
	// took a slot in a batch.
	held := 0
	for _, e := range sent.Events {
		if e.Kind >= trace.KindBlock {
			held++
		}
	}
	if got := m.ExecBatchEvents.Snapshot().Sum; m.Events.Load() != int64(len(sent.Events)) || got != int64(held) || held == len(sent.Events) {
		t.Fatalf("events_total %d of %d frames sent; the batches held %d events, want %d", m.Events.Load(), len(sent.Events), got, held)
	}

	var export bytes.Buffer
	if _, _, err := segment.Stitch(&export, dir, session, func(path string, err error) { t.Errorf("%s: %v", path, err) }); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Decode(export.Bytes())
	if err != nil {
		t.Fatalf("the export does not decode: %v", err)
	}
	// The server's own annotations (a report if a batch happened to end
	// inside a deadlock) sit where the applying read loop happened to be; a client
	// checkpoint names no resources, a report does.
	var arrived []trace.Event
	var ordinals []int64
	for i, e := range got.Events {
		if e.Kind == trace.KindVerdict {
			ordinals = append(ordinals, int64(i))
			if len(e.Resources) > 0 {
				continue
			}
		}
		arrived = append(arrived, e)
	}
	if len(arrived) != len(sent.Events) {
		t.Fatalf("archive holds %d client events, %d were sent", len(arrived), len(sent.Events))
	}
	for i := range arrived {
		if !reflect.DeepEqual(arrived[i], sent.Events[i]) {
			t.Fatalf("event %d: archived %v, sent %v", i, arrived[i], sent.Events[i])
		}
	}
	refs, err := segment.Scan(dir, false, nil)
	if err != nil || len(refs) != 1 {
		t.Fatalf("Scan: %v, %d segments", err, len(refs))
	}
	if !reflect.DeepEqual(refs[0].Index.VerdictOrdinals, ordinals) {
		t.Fatalf("index lists verdicts at %v, the events have them at %v", refs[0].Index.VerdictOrdinals, ordinals)
	}
	// Every block decodes alone (Events starts each with an empty ledger).
	sg, err := segment.Open(refs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	var raw int64
	for _, b := range sg.Index.Blocks {
		raw += b.RawLen
	}
	if len(sg.Index.Blocks) < 2 {
		t.Fatalf("the archive is %d block(s): no block boundary to decode across", len(sg.Index.Blocks))
	}
	if raw >= int64(fullLen) {
		t.Fatalf("the archive holds %d bytes, the events in full frames %d: no re-block archived", raw, fullLen)
	}
	err = sg.Events(func(ord int64, e *trace.Event) error {
		if e.Kind != got.Events[ord].Kind || e.Task != got.Events[ord].Task {
			t.Fatalf("block-wise event %d is %v, the export's %v", ord, e, got.Events[ord])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("an archive block does not decode on its own: %v", err)
	}

	want, err := replay.ReplayTrace(sent, replay.Detect, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := replay.VerifyAll(got, replay.Options{})
	if err != nil {
		t.Fatalf("the export fails replay: %v", err)
	}
	for _, r := range results {
		if !reflect.DeepEqual(r.Verdicts, want.Verdicts) || r.DeadlockSteps == 0 {
			t.Fatalf("%v: the export replays to other verdicts than what was sent (%d deadlocked steps, want %d)",
				r.Pipeline, r.DeadlockSteps, want.DeadlockSteps)
		}
	}
}

// TestWideKindFrameRefusedAndNotArchived: event kind 261 is 5 (unblock)
// modulo 256. A decoder that narrows the kind before it looks at it takes
// the frame 85 02 02 for "unblock task 1" — and the archive, which keeps
// frames as they arrived, would hold it for ever. The connection gets a
// malformed goodbye instead, and the archive ends with the frame before.
func TestWideKindFrameRefusedAndNotArchived(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, Config{SegmentDir: dir})
	const session = "wide-kind"
	nc, tw, br, _ := rawAttach(t, s, session, core.ModeDetect)
	defer nc.Close()
	good := trace.Event{Kind: trace.KindBlock, Task: 1, Status: status(1, []deps.Resource{res(1, 1)}, []deps.Reg{reg(1, 1)})}
	if err := tw.WriteEvent(good); err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteFrames([]byte{3, 0x85, 0x02, 0x02}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var r proto.Response
	if err := proto.ReadResponse(br, &r); err != nil {
		t.Fatalf("no goodbye for a frame of kind 261: %v", err)
	}
	if r.Kind != proto.RespGoodbye || r.Code != proto.ByeMalformed {
		t.Fatalf("got %v code=%d, want a malformed goodbye", r.Kind, r.Code)
	}
	s.Close() // seals the segment

	var export bytes.Buffer
	if _, _, err := segment.Stitch(&export, dir, session, func(path string, err error) { t.Errorf("%s: %v", path, err) }); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Decode(export.Bytes())
	if err != nil {
		t.Fatalf("the export does not decode: %v", err)
	}
	if len(got.Events) != 1 || !reflect.DeepEqual(got.Events[0], good) {
		t.Fatalf("the archive holds %v, want the one good event", got.Events)
	}
}
