package segment

import (
	"runtime"
	"testing"
	"time"
)

// allocated reports the heap allocations f makes and their bytes. It runs
// f on one P, as testing.AllocsPerRun does, so no other goroutine of the
// test allocates meanwhile; unlike AllocsPerRun it does not average, so an
// allocation once every few calls still shows.
func allocated(f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestWarmWriterAppendsWithoutAllocating: once a Writer has filled one
// segment, the next takes over its block buffer, block list, verdict
// ordinals and index buffer, and the encoder keeps its output. Past the
// new segment's file creation, batches go through block cuts — encode,
// write, block list — without a single allocation.
func TestWarmWriterAppendsWithoutAllocating(t *testing.T) {
	w, err := NewWriter(WriterConfig{Dir: t.TempDir(), Session: "warm", Mode: 1})
	if err != nil {
		t.Fatal(err)
	}
	const events = 240
	frames, rel := frameBatch(t, synthEvents(events)) // verdicts included
	now := time.Unix(1000, 0)
	appendN := func(n int) {
		for range n {
			if err := w.Append(frames, events, rel, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	const perSegment = 400
	cuts := perSegment * len(frames) / DefaultBlockBytes
	if cuts < 8 {
		t.Fatalf("%d block cuts a segment, want several", cuts)
	}
	appendN(perSegment)
	if err := w.Seal(now); err != nil {
		t.Fatal(err)
	}
	appendN(perSegment / 4) // the new segment's file is created at its first cut
	if n, b := allocated(func() { appendN(perSegment / 2) }); n != 0 {
		t.Fatalf("%d appends through %d block cuts allocated %d times (%d B), want 0",
			perSegment/2, cuts/2, n, b)
	}
	if err := w.Seal(now); err != nil {
		t.Fatal(err)
	}
}

// TestRotationAllocatesOnlyNames: a rotation, forced here at every batch
// by a one-byte MaxBytes, seals one segment and opens the next. What it
// allocates is the file handle, the segment's names and the syscalls'
// path strings — none of the buffers that scale with a block (32 KiB raw,
// the encoder's output, up to 4096 verdict ordinals) or with the index.
func TestRotationAllocatesOnlyNames(t *testing.T) {
	w, err := NewWriter(WriterConfig{Dir: t.TempDir(), Session: "rotating", Mode: 1, MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	const events = 6000
	frames, rel := frameBatch(t, synthEvents(events)) // more than a block: one a batch
	if len(frames) < DefaultBlockBytes {
		t.Fatalf("a batch of %d bytes does not fill a block", len(frames))
	}
	now := time.Unix(1000, 0)
	rotate := func(n int) {
		for range n {
			if err := w.Append(frames, events, rel, now); err != nil {
				t.Fatal(err)
			}
			if w.Active() {
				t.Fatal("a full block did not rotate the segment")
			}
		}
	}
	rotate(3)
	const rotations, perRotation = 20, 2 << 10
	if _, b := allocated(func() { rotate(rotations) }); b > rotations*perRotation {
		t.Fatalf("%d rotations allocated %d B, %d each; want at most %d", rotations, b, b/rotations, perRotation)
	}
}

// TestFreeListKeepsItsBound: the tee's batches come back through a free
// list that a GC does not empty. A burst that fills the queue leaves
// exactly freeLen of them kept for reuse, no more, and a batch grown past
// keepFrames — a giant frame — is left to the GC.
func TestFreeListKeepsItsBound(t *testing.T) {
	st, err := NewStore(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]byte, 1<<10)
	made := make(map[*Batch]bool)
	for i := 0; st.Metrics().BatchesDropped.Load() == 0; i++ {
		if i == 1<<20 {
			t.Fatal("a burst of appends never filled the queue")
		}
		b := st.NewBatch()
		made[b] = true
		b.Session, b.Mode = "burst", 1
		b.Frames = append(b.Frames, frames...)
		b.Events = 1
		st.Append(b)
	}
	st.Close()
	for i := range freeLen {
		if b := st.NewBatch(); !made[b] {
			t.Fatalf("batch %d after the burst is new, want the free list's %d reused", i, freeLen)
		}
	}
	if b := st.NewBatch(); made[b] {
		t.Fatalf("the free list kept more than its bound of %d batches", freeLen)
	}
	giant, kept := st.NewBatch(), st.NewBatch()
	giant.Frames = make([]byte, 0, keepFrames+1)
	kept.Frames = make([]byte, 0, keepFrames)
	st.Release(giant)
	st.Release(kept)
	if b := st.NewBatch(); b != kept || len(st.free) != 0 {
		t.Fatalf("a batch of %d B was kept, or one of %d B was not", cap(giant.Frames), cap(kept.Frames))
	}
}
