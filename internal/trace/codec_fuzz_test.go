package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"armus/internal/deps"
	"armus/internal/wire"
)

// quoteBytes renders data as a Go double-quoted string literal, the form
// the go-fuzz corpus file format expects inside []byte(...).
func quoteBytes(data []byte) string {
	return strconv.Quote(string(data))
}

// FuzzTraceCodec feeds arbitrary bytes to the trace decoder, mirroring
// dist's FuzzSnapshotCodec. Three properties must hold on every input:
//
//  1. corrupt input never panics and never over-allocates — it returns an
//     error (replay refuses the trace),
//  2. whatever decodes successfully re-encodes to a stream that decodes to
//     the same trace (decode∘encode is a fixpoint; byte equality is NOT
//     required because varints accept non-minimal forms on input), and
//  3. the streaming reader yields the same events and the same final error
//     whether the bytes arrive whole, seven at a time or one at a time (the
//     chunkings of window_test.go): its in-place window must not let a
//     refill boundary show, and
//  4. the one-pass decoder of one-byte frames agrees with the cursor path
//     (oneByteAgrees) on the input taken as one event payload and on every
//     frame payload of the input taken as a stream.
//
// The seed corpus under testdata/fuzz/FuzzTraceCodec holds valid traces of
// every event shape the recorder produces plus the corrupt variants the
// unit tests enumerate (regenerate with ARMUS_WRITE_FUZZ_CORPUS=1); CI
// runs a short fuzz-smoke over it on every PR.
func FuzzTraceCodec(f *testing.F) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleTrace()); err != nil {
		f.Fatal(err)
	}
	good := append([]byte(nil), buf.Bytes()...)
	f.Add(good)
	buf.Reset()
	if err := Encode(&buf, &Trace{Label: "empty", Mode: 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...))
	f.Add(good[:len(good)-3])                   // truncated
	f.Add(append(append([]byte{}, good...), 0)) // trailing byte
	f.Add([]byte(traceMagic))                   // header missing
	f.Add([]byte("NOTARMUS--------"))
	f.Add(append([]byte(traceMagic), 0xff, 0xff, 0xff, 0xff, 0x7f)) // huge frame
	f.Add(mustEncodeFrames(f, [][]byte{aliasUnblock}))              // event kind 261
	f.Add(mustEncodeFrames(f, [][]byte{aliasReported}))             // verdict kind 258
	f.Add(streamOf(f, overflowPrefix))                              // a length that wraps
	f.Add(streamOf(f, reblockFrames(f, meshStream(1), 100)))        // re-blocks
	for _, c := range reblockRefusals(f) {                          // re-blocks refused by name
		f.Add(c.data)
	}
	// Event payloads, alone and framed in a stream, for the one-pass decoder.
	for _, p := range [][]byte{
		{1, 2, 4, 6, 1}, {2, 0x7f, 4, 6}, {3, 2, 4}, {5, 2}, // one-byte register, arrive, drop, unblock
		{0x82, 0x00, 2, 4, 6}, // a non-minimal kind
		{2, 0x82, 0x00, 4, 6}, // a non-minimal field
		{5, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, // a task past 64 bits
		{5, 2, 0},          // a trailing byte
		{1, 2, 4, 6},       // a register cut short
		{3, 2, 0x80},       // a drop cut inside its phaser
		{3, 2, 0x80, 0x01}, // phaser 64: two bytes
	} {
		f.Add(p)
		f.Add(mustEncodeFrames(f, [][]byte{p}))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		oneByteAgrees(t, data)
		if rest, ok := bytes.CutPrefix(data, []byte(traceMagic)); ok {
			for len(rest) > 0 {
				payload, next, err := NextFrame(rest)
				if err != nil {
					break
				}
				oneByteAgrees(t, payload)
				rest = next
			}
		}
		whole := streamOutcome(data, chunkings[0].wrap)
		for _, c := range chunkings[1:] {
			if got := streamOutcome(data, c.wrap); got != whole {
				t.Fatalf("%s reader diverges from the unchunked one:\n%s\nvs\n%s", c.name, tail(got), tail(whole))
			}
		}
		tr, err := Decode(data)
		if err != nil {
			return // rejected: a fine outcome for arbitrary bytes
		}
		var re bytes.Buffer
		if err := Encode(&re, tr); err != nil {
			t.Fatalf("decoded trace failed to re-encode: %v", err)
		}
		tr2, err := Decode(re.Bytes())
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if tr2.Label != tr.Label || tr2.Mode != tr.Mode {
			t.Fatalf("fixpoint broken: header (%q,%d) -> (%q,%d)",
				tr.Label, tr.Mode, tr2.Label, tr2.Mode)
		}
		if len(tr2.Events) != len(tr.Events) {
			t.Fatalf("fixpoint broken: %d events -> %d", len(tr.Events), len(tr2.Events))
		}
		for i := range tr.Events {
			if !reflect.DeepEqual(tr.Events[i], tr2.Events[i]) {
				t.Fatalf("fixpoint broken at event %d:\n%+v\nvs\n%+v",
					i, tr.Events[i], tr2.Events[i])
			}
		}
	})
}

// oneByteAgrees holds decodeOneByte to the cursor path on the event payload
// p: where it decodes p, the cursor decodes it to the same Event; where it
// does not, p is a kind it leaves alone, has a longer spelling, or is
// refused by the cursor. Both decode into events that hold another event's
// fields, and the cursor also into a zero Event, so a field that either
// path forgets to clear shows.
func oneByteAgrees(t *testing.T, p []byte) {
	t.Helper()
	fast, slow, fresh := staleEvent(), staleEvent(), Event{}
	ok := decodeOneByte(p, &fast)
	err := decodeCursor(p, &slow, nil)
	// Printed without Event's String, which shows only its kind's fields.
	type fields Event
	if decodeCursor(p, &fresh, nil) == nil && fmt.Sprintf("%+v", fields(fresh)) != fmt.Sprintf("%+v", fields(slow)) {
		t.Fatalf("% x: decodes to %+v into a zero event, to %+v into a used one", p, fresh, slow)
	}
	switch {
	case ok && err != nil:
		t.Fatalf("% x: the one-pass decoder takes what the cursor refuses: %v", p, err)
	case ok && !reflect.DeepEqual(fast, slow):
		t.Fatalf("% x: one pass decodes %+v, the cursor %+v", p, fast, slow)
	case !ok && err == nil && wire.OneByte(p) && slow.Kind != KindBlock && slow.Kind != KindVerdict:
		t.Fatalf("% x: the one-pass decoder leaves %v to the cursor", p, slow)
	}
}

// staleEvent is an event with every field set, as a reused one is.
func staleEvent() Event {
	return Event{Kind: KindVerdict, Task: 9, Phaser: 9, Phase: 9, Mode: 9, Verdict: VerdictRejected,
		Status: deps.Blocked{Task: 9, WaitsFor: []deps.Resource{{Phaser: 9, Phase: 9}}, Regs: []deps.Reg{{Phaser: 9}}},
		Tasks:  []deps.TaskID{9}, Resources: []deps.Resource{{Phaser: 9}}}
}
