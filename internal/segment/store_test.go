package segment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"armus/internal/clock"
	"armus/internal/trace"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// appendSynth tees n synthetic events to the store for session.
func appendSynth(t *testing.T, st *Store, session string, n int) {
	t.Helper()
	evs := synthEvents(n)
	b := st.NewBatch()
	b.Session = session
	b.Mode = 1
	frames, rel := frameBatch(t, evs)
	b.Frames = append(b.Frames, frames...)
	b.Events = n
	b.Verdicts = append(b.Verdicts, rel...)
	if !st.Append(b) {
		t.Fatalf("Append dropped with an empty queue")
	}
}

func TestStoreTeeSealAndQuery(t *testing.T) {
	dir := t.TempDir()
	fake := clock.NewFake()
	st, err := NewStore(Config{Dir: dir, Clock: fake})
	if err != nil {
		t.Fatal(err)
	}
	appendSynth(t, st, "app", 60)
	appendSynth(t, st, "app", 60)
	waitFor(t, "appends handled", func() bool { return st.Metrics().ActiveWriters.Load() == 1 })
	st.SealSession("app")
	waitFor(t, "seal", func() bool { return st.Metrics().Sealed.Load() == 1 })
	refs, err := Scan(dir, false, nil)
	if err != nil || len(refs) != 1 {
		t.Fatalf("Scan: %v, %d refs", err, len(refs))
	}
	if refs[0].Index.Session != "app" || refs[0].Index.Events != 120 {
		t.Fatalf("sealed index: %+v", refs[0].Index)
	}
	m := st.Metrics()
	if m.Events.Load() != 120 || m.Batches.Load() != 2 || m.BytesWritten.Load() == 0 || m.VerdictsArchived.Load() == 0 {
		t.Fatalf("metrics: %+v", m)
	}
	st.Close()
}

func TestStoreCloseSealsEverything(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendSynth(t, st, "x", 30)
	appendSynth(t, st, "y", 30)
	st.Close() // drains the queue, then seals both writers
	refs, err := Scan(dir, false, nil)
	if err != nil || len(refs) != 2 {
		t.Fatalf("Scan after Close: %v, %d refs", err, len(refs))
	}
	for _, r := range refs {
		if r.Index.Events != 30 {
			t.Fatalf("segment %s holds %d events", r.Path, r.Index.Events)
		}
	}
	if ents, _ := filepath.Glob(filepath.Join(dir, "*.active")); len(ents) != 0 {
		t.Fatalf("active files survived Close: %v", ents)
	}
}

// TestRetentionSparesActive pins the satellite requirement: retention
// reclaims sealed segments oldest-first but never touches the active
// segment of a live session.
func TestRetentionSparesActive(t *testing.T) {
	dir := t.TempDir()
	fake := clock.NewFake()
	// BlockBytes=64 forces the live session to flush a block, so its
	// `.seg.active` file exists on disk when the retention sweep runs
	// (files are created lazily at the first block flush).
	st, err := NewStore(Config{Dir: dir, Clock: fake, RetainBytes: 1, MaxAge: time.Hour, BlockBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendSynth(t, st, "old", 50)
	st.SealSession("old")
	waitFor(t, "seal", func() bool { return st.Metrics().Sealed.Load() == 1 })
	appendSynth(t, st, "live", 50) // stays active: no seal, MaxAge far away
	waitFor(t, "live writer", func() bool { return st.Metrics().ActiveWriters.Load() == 1 })

	fake.Tick() // sweep: RetainBytes=1 forces deletion of every sealed file
	waitFor(t, "retention", func() bool { return st.Metrics().RetainedSegments.Load() == 1 })

	if refs, _ := Scan(dir, false, nil); len(refs) != 0 {
		t.Fatalf("sealed segment survived RetainBytes=1")
	}
	actives, _ := filepath.Glob(filepath.Join(dir, "*.seg.active"))
	if len(actives) != 1 {
		t.Fatalf("active segment count = %d, want 1 (never deleted by retention)", len(actives))
	}
	m := st.Metrics()
	if m.RetainedBytes.Load() == 0 {
		t.Fatalf("retained bytes not counted: %+v", m)
	}
	st.Close()
	// Close seals the live session; its data survived retention.
	refs, _ := Scan(dir, false, nil)
	if len(refs) != 1 || refs[0].Index.Session != "live" {
		t.Fatalf("live session lost: %v", refs)
	}
}

// TestRetainAge drives the age policy entirely on the fake clock: the
// seal time comes from Clock.Now, so ticking the clock past RetainAge
// expires the segment deterministically.
func TestRetainAge(t *testing.T) {
	dir := t.TempDir()
	fake := clock.NewFake()
	st, err := NewStore(Config{Dir: dir, Clock: fake, RetainAge: 5 * time.Second, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	appendSynth(t, st, "aged", 20)
	st.SealSession("aged")
	waitFor(t, "seal", func() bool { return st.Metrics().Sealed.Load() == 1 })
	// Each tick advances 1s and runs one sweep; after >5 ticks the sealed
	// segment is older than RetainAge.
	for i := 0; i < 8; i++ {
		fake.Tick()
	}
	waitFor(t, "age-based retention", func() bool { return st.Metrics().RetainedSegments.Load() == 1 })
	if refs, _ := Scan(dir, false, nil); len(refs) != 0 {
		t.Fatalf("aged segment survived RetainAge")
	}
	st.Close()
}

// TestIdleSealOnSweep: a session that stops sending is sealed by the
// sweep once MaxAge passes, without any explicit SealSession.
func TestIdleSealOnSweep(t *testing.T) {
	dir := t.TempDir()
	fake := clock.NewFake()
	st, err := NewStore(Config{Dir: dir, Clock: fake, MaxAge: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	appendSynth(t, st, "idle", 25)
	waitFor(t, "writer open", func() bool { return st.Metrics().ActiveWriters.Load() == 1 })
	for i := 0; i < 6; i++ {
		fake.Tick()
	}
	waitFor(t, "idle seal", func() bool { return st.Metrics().Sealed.Load() == 1 && st.Metrics().ActiveWriters.Load() == 0 })
	refs, _ := Scan(dir, false, nil)
	if len(refs) != 1 || refs[0].Index.Events != 25 {
		t.Fatalf("idle session not sealed cleanly: %v", refs)
	}
	st.Close()
}

// TestStoreQuarantinesCorruptOnSweep: a sealed segment corrupted on disk
// is quarantined by the retention sweep instead of crashing it.
func TestStoreQuarantinesCorruptOnSweep(t *testing.T) {
	dir := t.TempDir()
	fake := clock.NewFake()
	st, err := NewStore(Config{Dir: dir, Clock: fake, RetainBytes: 1 << 40, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	appendSynth(t, st, "bad", 20)
	st.SealSession("bad")
	waitFor(t, "seal", func() bool { return st.Metrics().Sealed.Load() == 1 })
	refs, _ := Scan(dir, false, nil)
	if len(refs) != 1 {
		t.Fatalf("expected one sealed segment")
	}
	data, err := os.ReadFile(refs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(refs[0].Path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	fake.Tick()
	waitFor(t, "quarantine on sweep", func() bool { return st.Metrics().QuarantinedFiles.Load() >= 1 })
	if _, err := os.Stat(refs[0].Path + ".quarantined"); err != nil {
		t.Fatalf("corrupt segment not quarantined: %v", err)
	}
	st.Close()
}

// TestTeeFramesMatchWire: the frames a Batch carries are byte-identical
// to what trace.Writer would put on the wire, so archives and live
// recordings share one format.
func TestTeeFramesMatchWire(t *testing.T) {
	evs := synthEvents(12)
	var frames []byte
	for _, e := range evs {
		var err error
		if frames, err = trace.AppendEventFrame(frames, e); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for rest := frames; len(rest) > 0; n++ {
		var payload []byte
		var err error
		if payload, rest, err = trace.NextFrame(rest); err != nil {
			t.Fatal(err)
		}
		var e trace.Event
		if err := trace.DecodeFramePayload(payload, &e); err != nil {
			t.Fatal(err)
		}
		if e.Kind != evs[n].Kind {
			t.Fatalf("frame %d decoded kind %v, want %v", n, e.Kind, evs[n].Kind)
		}
	}
	if n != len(evs) {
		t.Fatalf("decoded %d frames, want %d", n, len(evs))
	}
	if strings.Contains(string(frames), Magic) {
		t.Fatal("frames must not embed a file magic")
	}
}

// TestRetainAgeCacheInvalidation: the sweep's retention cache keys on
// size, so a file rewritten in place is re-read rather than served
// stale.
func TestRetentionCountsQuarantined(t *testing.T) {
	dir := t.TempDir()
	fake := clock.NewFake()
	st, err := NewStore(Config{Dir: dir, Clock: fake, RetainBytes: 1, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-existing quarantined junk counts toward the byte budget and is
	// reclaimable oldest-first like anything sealed.
	junk := filepath.Join(dir, "junk-00000001.seg.quarantined")
	if err := os.WriteFile(junk, []byte("leftover"), 0o644); err != nil {
		t.Fatal(err)
	}
	fake.Tick()
	waitFor(t, "junk reclaimed", func() bool { return st.Metrics().RetainedSegments.Load() == 1 })
	if _, err := os.Stat(junk); !os.IsNotExist(err) {
		t.Fatalf("quarantined junk not reclaimed: %v", err)
	}
	st.Close()
}
