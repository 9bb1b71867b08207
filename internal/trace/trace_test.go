package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"armus/internal/deps"
)

// sampleTrace builds a trace exercising every event kind and field shape,
// including distributed-range IDs and negative phases.
func sampleTrace() *Trace {
	r := NewRecorder()
	r.SetLabel("unit: every kind")
	r.SetMode(2)
	r.Register(1, 10, 0, 0)
	r.Register(2, 10, 0, 1)
	r.Register(3<<32+7, 5<<32+1, 1<<40, 2)
	r.Arrive(1, 10, 1)
	r.Block(deps.Blocked{
		Task:     2,
		WaitsFor: []deps.Resource{{Phaser: 10, Phase: 1}},
		Regs:     []deps.Reg{{Phaser: 10, Phase: 0}, {Phaser: 11, Phase: -3}},
	})
	r.Rejected(deps.Blocked{
		Task:     1,
		WaitsFor: []deps.Resource{{Phaser: 11, Phase: 2}},
		Regs:     []deps.Reg{{Phaser: 11, Phase: 0}},
	}, []deps.TaskID{1, 2}, []deps.Resource{{Phaser: 10, Phase: 1}, {Phaser: 11, Phase: 2}})
	r.Reported([]deps.TaskID{2, 3<<32 + 7}, []deps.Resource{{Phaser: 10, Phase: 1}})
	r.Unblock(2)
	r.Drop(1, 10)
	return r.Trace()
}

func TestCodecRoundTrip(t *testing.T) {
	want := sampleTrace()
	var buf bytes.Buffer
	if err := Encode(&buf, want); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Label != want.Label || got.Mode != want.Mode {
		t.Fatalf("header mismatch: got (%q, %d), want (%q, %d)",
			got.Label, got.Mode, want.Label, want.Mode)
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("events mismatch:\ngot  %+v\nwant %+v", got.Events, want.Events)
	}
	if got.Mutations() != 2 {
		t.Fatalf("mutations = %d, want 2 (one block, one unblock)", got.Mutations())
	}
}

func TestCodecEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, &Trace{}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Events) != 0 || got.Label != "" || got.Mode != 0 {
		t.Fatalf("decoded %+v, want empty trace", got)
	}
}

func TestStreamingReaderMatchesDecode(t *testing.T) {
	want := sampleTrace()
	var buf bytes.Buffer
	if err := Encode(&buf, want); err != nil {
		t.Fatalf("encode: %v", err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("new reader: %v", err)
	}
	if r.Label() != want.Label || r.Mode() != want.Mode {
		t.Fatalf("header: got (%q, %d), want (%q, %d)", r.Label(), r.Mode(), want.Label, want.Mode)
	}
	var events []Event
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		events = append(events, e)
	}
	if !reflect.DeepEqual(events, want.Events) {
		t.Fatalf("streamed events mismatch")
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next after EOF = %v, want io.EOF", err)
	}
}

// corruptions enumerates the malformations every reader must reject. The
// same payloads seed FuzzTraceCodec's corpus.
func corruptions(t *testing.T) map[string][]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, sampleTrace()); err != nil {
		t.Fatalf("encode: %v", err)
	}
	good := buf.Bytes()
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-10] ^= 0x40 // damage an event body, CRC must catch it
	badCRC := append([]byte(nil), good...)
	badCRC[len(badCRC)-1] ^= 0xff
	out := map[string][]byte{
		"truncated":      good[:len(good)-7],
		"no_footer":      good[:len(good)-4],
		"trailing":       append(append([]byte(nil), good...), 0),
		"bad_magic":      []byte("NOTARMUS--------"),
		"header_only":    []byte(traceMagic),
		"huge_length":    append([]byte(traceMagic), 0xff, 0xff, 0xff, 0xff, 0x7f),
		"bit_flip":       flipped,
		"bad_crc":        badCRC,
		"unknown_kind":   mustEncodeFrames(t, [][]byte{{99}}),
		"short_frame":    mustEncodeFrames(t, [][]byte{{byte(KindUnblock)}}),
		"frame_trailing": mustEncodeFrames(t, [][]byte{{byte(KindUnblock), 2, 0}}),
		// A kind that does not fit a byte is not the kind it is modulo 256.
		"kind_alias":         mustEncodeFrames(t, [][]byte{aliasUnblock}),
		"verdict_kind_alias": mustEncodeFrames(t, [][]byte{aliasReported}),
		"prefix_overflow":    streamOf(t, overflowPrefix),
	}
	for name, c := range reblockRefusals(t) {
		out[name] = c.data
	}
	return out
}

// overflowPrefix is an unblock frame behind a length prefix of 2 + 2·2⁶³:
// in 64 bits it wraps to the frame's true length, 2.
var overflowPrefix = []byte{0x82, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, byte(KindUnblock), 0x02}

// TestFrameLengthOverflowRefused: a frame length prefix whose tenth byte is
// above 1 does not fit 64 bits; the stream reader refuses it as NextFrame
// does, instead of taking the wrapped value.
func TestFrameLengthOverflowRefused(t *testing.T) {
	if _, _, err := NextFrame(overflowPrefix); err == nil {
		t.Fatal("NextFrame took the prefix")
	}
	for _, c := range chunkings {
		if got := streamOutcome(streamOf(t, overflowPrefix), c.wrap); !strings.HasSuffix(got, "end: trace: bad frame length prefix") {
			t.Errorf("%s reader: %s", c.name, tail(got))
		}
	}
}

// Event kind 261 and verdict kind 258: cut to a byte they read "unblock
// task 1" and "verdict reported", and a decoder that narrows before it
// looks accepts both.
var (
	aliasUnblock  = []byte{0x85, 0x02, 0x02}
	aliasReported = []byte{0x06, 0x82, 0x02, 0x00, 0x00}
)

// TestWideKindIsNotItsLowByte: a kind of 256 or more is rejected, where a
// long spelling of a kind that does fit stays accepted (the archive keeps
// frames as they arrived, TestArchiveHoldsWhatArrived).
func TestWideKindIsNotItsLowByte(t *testing.T) {
	var e Event
	for _, frame := range [][]byte{aliasUnblock, aliasReported} {
		if err := DecodeFramePayload(frame, &e); err == nil {
			t.Errorf("frame % x accepted as %v", frame, e)
		}
	}
	if err := DecodeFramePayload([]byte{0x85, 0x00, 0x02}, &e); err != nil || e.Kind != KindUnblock || e.Task != 1 {
		t.Errorf("kind 5 spelt in two bytes: %v, %v", e, err)
	}
}

// mustEncodeFrames assembles a structurally valid stream (magic + empty
// header + CRC footer) around raw event frames, so corrupt-frame cases
// fail on the frame, not on the envelope.
func mustEncodeFrames(t testing.TB, frames [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "", 0)
	if err != nil {
		t.Fatalf("new writer: %v", err)
	}
	for _, f := range frames {
		if err := w.writeFrame(f); err != nil {
			t.Fatalf("write frame: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

// TestEncodeRejectsOversizedFrames: the writer enforces the reader's
// frame cap, so recording can never mint an artifact no decode accepts.
func TestEncodeRejectsOversizedFrames(t *testing.T) {
	if err := Encode(io.Discard, &Trace{Label: strings.Repeat("x", maxTraceItems)}); err == nil {
		t.Fatalf("encode accepted a label no reader would take back")
	}
	huge := Event{Kind: KindBlock, Task: 1, Status: deps.Blocked{Task: 1,
		WaitsFor: make([]deps.Resource, maxTraceItems)}}
	if err := Encode(io.Discard, &Trace{Events: []Event{huge}}); err == nil {
		t.Fatalf("encode accepted an event frame no reader would take back")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	for name, data := range corruptions(t) {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

func TestWriteReadFile(t *testing.T) {
	want := sampleTrace()
	path := filepath.Join(t.TempDir(), "sample.trace")
	if err := WriteFile(path, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("file round trip lost events")
	}
}

func TestRecorderSnapshotIsIndependent(t *testing.T) {
	r := NewRecorder()
	buf := deps.Blocked{Task: 1, WaitsFor: []deps.Resource{{Phaser: 2, Phase: 3}}}
	r.Block(buf)
	buf.WaitsFor[0].Phase = 99 // caller reuses its buffer, as the hot path does
	tr := r.Trace()
	r.Unblock(1) // recording continues after the snapshot
	if n := len(tr.Events); n != 1 {
		t.Fatalf("snapshot has %d events, want 1", n)
	}
	if got := tr.Events[0].Status.WaitsFor[0].Phase; got != 3 {
		t.Fatalf("recorded status aliases the caller's buffer: phase %d, want 3", got)
	}
}

// TestWriteFuzzSeedCorpus regenerates testdata/fuzz/FuzzTraceCodec when
// ARMUS_WRITE_FUZZ_CORPUS=1 (the checked-in seed corpus is produced this
// way); otherwise it only verifies the corpus directory is present.
func TestWriteFuzzSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzTraceCodec")
	if os.Getenv("ARMUS_WRITE_FUZZ_CORPUS") != "1" {
		if _, err := os.Stat(dir); err != nil {
			t.Fatalf("seed corpus missing (regenerate with ARMUS_WRITE_FUZZ_CORPUS=1): %v", err)
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{}
	var buf bytes.Buffer
	if err := Encode(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	seeds["every_kind"] = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := Encode(&buf, &Trace{}); err != nil {
		t.Fatal(err)
	}
	seeds["empty"] = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := Encode(&buf, &Trace{Label: "distributed", Mode: 3, Events: []Event{
		{Kind: KindBlock, Task: 3<<32 + 1, Status: deps.Blocked{
			Task:     3<<32 + 1,
			WaitsFor: []deps.Resource{{Phaser: 3<<32 + 2, Phase: 1}},
			Regs:     []deps.Reg{{Phaser: 3<<32 + 2, Phase: 0}},
		}},
	}}); err != nil {
		t.Fatal(err)
	}
	seeds["distributed_ids"] = append([]byte(nil), buf.Bytes()...)
	seeds["reblock_mesh"] = streamOf(t, reblockFrames(t, meshStream(1), 100))
	for name, data := range corruptions(t) {
		seeds[name] = data
	}
	for name, data := range seeds {
		content := []byte("go test fuzz v1\n[]byte(" + quoteBytes(data) + ")\n")
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
