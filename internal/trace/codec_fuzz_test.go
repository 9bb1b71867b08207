package trace

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"
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
//     refill boundary show.
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

	f.Fuzz(func(t *testing.T, data []byte) {
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
