package segment

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"armus/internal/deps"
	"armus/internal/trace"
)

// sealedSeed writes a small session through a Writer — two blocks, verdicts
// in both, and one frame as a client may send it, a varint spelt a byte
// longer than it need be, which the tee archives as it arrived — and
// returns the sealed file's bytes with its index.
func sealedSeed(t testing.TB) ([]byte, *Index) {
	t.Helper()
	dir := t.TempDir()
	w, err := NewWriter(WriterConfig{Dir: dir, Session: "fuzz/seed", Mode: 1, BlockBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	evs := synthEvents(48)
	for i := 0; i < len(evs); i += 12 {
		var frames []byte
		var rel []int
		for j, e := range evs[i : i+12] {
			if frames, err = trace.AppendEventFrame(frames, e); err != nil {
				t.Fatal(err)
			}
			if e.Kind == trace.KindVerdict {
				rel = append(rel, j)
			}
		}
		frames = append(frames, 3, byte(trace.KindUnblock), 0x8a, 0x00) // task 5, the long way
		if err := w.Append(frames, 13, rel, now.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Seal(now.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	refs, err := Scan(dir, false, nil)
	if err != nil || len(refs) != 1 || len(refs[0].Index.Blocks) < 2 {
		t.Fatalf("seed segment: %v, %d refs", err, len(refs))
	}
	data, err := os.ReadFile(refs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	return data, refs[0].Index
}

// reblockSeed is a sealed session whose batches, each a block of its own,
// hold re-blocks as the tee archives them: a task's first block frame of a
// batch in full, its later ones as re-blocks of the one before.
func reblockSeed(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	w, err := NewWriter(WriterConfig{Dir: dir, Session: "fuzz/reblock", Mode: 2, BlockBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	for batch := int64(0); batch < 3; batch++ {
		var frames []byte
		last := map[deps.TaskID]deps.Blocked{}
		for i := int64(0); i < 9; i++ {
			task, phase := deps.TaskID(i%3+1), 3*batch+i/3
			st := deps.Blocked{Task: task, WaitsFor: []deps.Resource{{Phaser: 1, Phase: phase + 1}},
				Regs: []deps.Reg{{Phaser: 1, Phase: phase}, {Phaser: 2}, {Phaser: 3}, {Phaser: 4}}}
			framed := false
			if ref, ok := last[task]; ok {
				frames, framed = trace.AppendReblockFrame(frames, &ref, &st)
			}
			if !framed {
				if frames, err = trace.AppendEventFrame(frames, trace.Event{Kind: trace.KindBlock, Task: task, Status: st}); err != nil {
					t.Fatal(err)
				}
			}
			last[task] = st
		}
		if err := w.Append(frames, 9, nil, now.Add(time.Duration(batch)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Seal(now.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	refs, err := Scan(dir, false, nil)
	if err != nil || len(refs) != 1 || len(refs[0].Index.Blocks) != 3 {
		t.Fatalf("re-block seed: %v, %d refs", err, len(refs))
	}
	s, err := Open(refs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Events(func(int64, *trace.Event) error { return nil }); err != nil {
		t.Fatalf("re-block seed: %v", err)
	}
	data, err := os.ReadFile(refs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// reseal puts a data region and an index behind the header of a sealed
// file, with seals that hold: what a reader is left to find is whatever the
// index and the blocks themselves say.
func reseal(file []byte, idx *Index, data []byte) []byte {
	out := append(bytes.Clone(file[:idx.DataStart]), data...)
	ib := appendIndex(nil, idx)
	out = append(out, ib...)
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint32(tr[0:], uint32(len(ib)))
	binary.LittleEndian.PutUint32(tr[4:], crcIEEE(ib))
	binary.LittleEndian.PutUint32(tr[8:], crcIEEE(out))
	copy(tr[12:], trailerMagic)
	return append(out, tr[:]...)
}

// legacySeed is the seed segment as the writer sealed it before it had an
// encoder of its own: every block compressed by compress/flate at
// BestSpeed. The reader must take it event for event as it takes the seed.
func legacySeed(t testing.TB, seed []byte, idx *Index) []byte {
	t.Helper()
	legacy := *idx
	legacy.Blocks = append([]BlockInfo(nil), idx.Blocks...)
	var data []byte
	fl, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	var comp bytes.Buffer
	for i := range legacy.Blocks {
		b := &legacy.Blocks[i]
		raw := inflate(t, seed[b.Offset:b.Offset+b.CompLen])
		cb := flateBytes(fl, &comp, raw)
		b.CompLen, b.CRC = int64(len(cb)), crcIEEE(cb)
		data = append(data, cb...)
	}
	file := reseal(seed, &legacy, data)
	events := func(file []byte) []trace.Event {
		path := filepath.Join(t.TempDir(), "legacy-00000001.seg")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var evs []trace.Event
		if err := s.Events(func(_ int64, e *trace.Event) error {
			evs = append(evs, normEvent(e))
			return nil
		}); err != nil {
			t.Fatalf("a segment of compress/flate blocks: %v", err)
		}
		return evs
	}
	if got, want := events(file), events(seed); !reflect.DeepEqual(got, want) {
		t.Fatalf("a segment of compress/flate blocks reads %d events, the same segment as sealed today %d", len(got), len(want))
	}
	return file
}

// FuzzSegmentReader feeds arbitrary bytes to everything that reads a
// segment file — Scan and Open (trailer, footer index), Verify, block
// decompression, Events, EachVerdict and Stitch. Since the tee archives
// frames as the client sent them, a block's payload is client bytes: the
// reader is one more decoder of untrusted input. Nothing may panic or
// allocate by a length the file merely claims; every failure is a returned
// error; and a file whose every event decodes must stitch into a trace that
// decodes to as many.
func FuzzSegmentReader(f *testing.F) {
	seed, idx := sealedSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-trailerLen-3]) // cut short inside the footer index
	f.Add(seed[:len(seed)-5])            // and inside the trailer
	data := seed[idx.DataStart : idx.DataStart+idx.Blocks[0].CompLen+idx.Blocks[1].CompLen]

	past := *idx // a block whose compressed length runs past the file
	past.Blocks = append([]BlockInfo(nil), idx.Blocks...)
	past.Blocks[1].CompLen += 1 << 20
	f.Add(reseal(seed, &past, data))

	huge := *idx // a block that claims to inflate to a gigabyte
	huge.Blocks = append([]BlockInfo(nil), idx.Blocks...)
	huge.Blocks[0].RawLen = maxBlockLen
	f.Add(reseal(seed, &huge, data))

	// A block that inflates to whole frames and then to garbage: a frame
	// that claims five bytes and has one.
	var comp bytes.Buffer
	raw, err := trace.AppendEventFrame(nil, synthEvents(3)[2])
	if err != nil {
		f.Fatal(err)
	}
	raw = append(raw, 5, 1)
	fl, _ := flate.NewWriter(&comp, flate.BestSpeed)
	fl.Write(raw)
	fl.Close()
	garbage := *idx
	garbage.Events, garbage.Verdicts, garbage.VerdictOrdinals = 1, 0, nil
	garbage.Blocks = []BlockInfo{{CompLen: int64(comp.Len()), RawLen: int64(len(raw)), Events: 1, CRC: crcIEEE(comp.Bytes())}}
	f.Add(reseal(seed, &garbage, comp.Bytes()))

	f.Add(legacySeed(f, seed, idx))
	f.Add(reblockSeed(f))

	f.Fuzz(func(t *testing.T, file []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz-00000001.seg")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		refs, err := Scan(dir, false, nil)
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if len(refs) == 0 {
			return // rejected by the trailer or the index
		}
		s, err := Open(path)
		if err != nil {
			t.Fatalf("Scan took what Open refuses: %v", err)
		}
		defer s.Close()
		_ = s.Verify()
		events := int64(0)
		eventsErr := s.Events(func(ord int64, e *trace.Event) error {
			if ord != events {
				t.Fatalf("event ordinal %d after %d events", ord, events)
			}
			events++
			return nil
		})
		if eventsErr == nil && events != s.Index.Events {
			t.Fatalf("Events decoded %d events without error, the index says %d", events, s.Index.Events)
		}
		verdictsErr := s.EachVerdict(func(ord int64, e *trace.Event) error {
			if ord < 0 || ord >= s.Index.Events {
				t.Fatalf("verdict ordinal %d of %d events", ord, s.Index.Events)
			}
			return nil
		})
		if eventsErr == nil && verdictsErr != nil {
			t.Fatalf("every event decodes, but EachVerdict: %v", verdictsErr)
		}
		var out bytes.Buffer
		n, _, stitchErr := Stitch(&out, dir, s.Index.Session, nil)
		if eventsErr != nil {
			return
		}
		if stitchErr != nil {
			t.Fatalf("every event decodes, but Stitch: %v", stitchErr)
		}
		tr, err := trace.Decode(out.Bytes())
		if err != nil || int64(len(tr.Events)) != n || n != events {
			t.Fatalf("stitched %d events of %d: decodes to %v, %v", n, events, tr, err)
		}
	})
}
