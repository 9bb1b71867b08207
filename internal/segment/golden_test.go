package segment

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"armus/internal/trace"
	"armus/internal/trace/replay"
)

// goldenIndexHex is the footer index of goldenIndex as appendIndex of the
// commit before internal/wire existed (26b55cd, PR 21) encoded it — printed
// by that commit, not by this one: the ARMUSSG1 footer did not move if
// today's appendIndex still produces it and today's parseIndex still reads
// it back.
const goldenIndexHex = "010280808080201074656e616e742d372f736861726420328080d0e2c6bfce972f80e08ae785c3ce972fac0209fcffffffffffffffff0105010400018101a9012802e8078020c801ffffffff0f09120164640014fcffffffffffffffff01"

func goldenIndex() *Index {
	return &Index{
		Version: indexVersion, Mode: 2, Seq: 1 << 33, Session: "tenant-7/shard 2",
		CreatedUnixNano: 1_700_000_000_000_000_000, SealedUnixNano: 1_700_000_060_000_000_000,
		Events: 300, FirstUnixNano: -5, LastUnixNano: math.MaxInt64 - 1,
		Verdicts: 5, VerdictOrdinals: []int64{0, 1, 130, 299}, VerdictsTruncated: true,
		DataStart: 40,
		Blocks: []BlockInfo{
			{Offset: 40, CompLen: 1000, RawLen: 4096, Events: 200, CRC: math.MaxUint32, FirstUnixNano: -5, LastUnixNano: 9},
			{Offset: 1040, CompLen: 1, RawLen: 100, Events: 100, CRC: 0, FirstUnixNano: 10, LastUnixNano: math.MaxInt64 - 1},
		},
	}
}

func TestGoldenIndex(t *testing.T) {
	if got := hex.EncodeToString(appendIndex(nil, goldenIndex())); got != goldenIndexHex {
		t.Fatalf("GOLDEN index %s", got)
	}
	raw, _ := hex.DecodeString(goldenIndexHex)
	idx, err := parseIndex(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx, goldenIndex()) {
		t.Fatalf("the index decodes to\n%+v, want\n%+v", idx, goldenIndex())
	}
}

// TestLZ77SegmentStillReads: testdata/lz77-mesh-00000001.seg was sealed by
// this package's encoder before its blocks went literal-only, whose blocks
// carry LZ77 matches: the Mesh(8,8) stream of meshFrames(1, 8, 8, 4), framed
// with re-blocks in batches of 64 events, in 4 KiB blocks. Today's reader
// must scan it, stitch it back to the events it was written from, replay
// the export and decode it block by block.
func TestLZ77SegmentStillReads(t *testing.T) {
	const dir, session = "testdata", "lz77-mesh"
	warn := func(path string, err error) { t.Errorf("%s: %v", path, err) }
	refs, err := Scan(dir, false, warn)
	if err != nil || len(refs) != 1 || refs[0].Index.Session != session {
		t.Fatalf("Scan: %v, %d segments", err, len(refs))
	}
	var export bytes.Buffer
	if _, _, err := Stitch(&export, dir, session, warn); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Decode(export.Bytes())
	if err != nil {
		t.Fatalf("the export does not decode: %v", err)
	}
	var want []trace.Event
	for rest := meshFrames(t, 1, 8, 8, 4); len(rest) > 0; {
		var payload []byte
		var e trace.Event
		if payload, rest, err = trace.NextFrame(rest); err == nil {
			err = trace.DecodeFramePayload(payload, &e)
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, e)
	}
	if !reflect.DeepEqual(got.Events, want) {
		t.Fatalf("the export holds %d events, other than the %d written", len(got.Events), len(want))
	}
	if _, err := replay.VerifyAll(got, replay.Options{}); err != nil {
		t.Fatalf("the export fails replay: %v", err)
	}
	sg, err := Open(refs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	n := 0
	if err := sg.Events(func(ord int64, e *trace.Event) error {
		if !reflect.DeepEqual(normEvent(e), normEvent(&want[ord])) {
			t.Fatalf("block-wise event %d is %v, want %v", ord, e, want[ord])
		}
		n++
		return nil
	}); err != nil || n != len(want) {
		t.Fatalf("block by block: %v after %d events", err, n)
	}
	// The blocks are the LZ77 parse's: a literal-only code of the same
	// bytes is longer.
	enc := new(blockEncoder)
	for i, b := range sg.Index.Blocks {
		raw, err := sg.Block(i)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(enc.encode(raw)); int64(n) <= b.CompLen {
			t.Fatalf("block %d: %d bytes as literals, %d in the file: no matches to read", i, n, b.CompLen)
		}
	}
}
