package segment

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"armus/internal/clock"
	"armus/internal/obs"
)

// Config configures a Store: where the archive lives, when segments
// rotate, and how much history retention keeps.
type Config struct {
	Dir string
	// MaxAge / BlockBytes are per-segment rotation knobs (WriterConfig
	// semantics, zero = default); the size bound is DefaultMaxBytes.
	MaxAge     time.Duration
	BlockBytes int
	// RetainBytes caps the total size of sealed (and quarantined)
	// segments in Dir; the retention sweep deletes oldest-first until
	// under the cap. Zero disables the size policy.
	RetainBytes int64
	// RetainAge deletes sealed segments whose seal time is older than
	// this. Zero disables the age policy.
	RetainAge time.Duration
	// Clock stamps batches and drives the sweep ticker (default Real).
	Clock clock.Clock
	// Logf, if set, receives operational warnings (seal failures,
	// quarantines, retention deletions).
	Logf func(format string, args ...any)
}

// sweepPeriod is the retention/idle-seal tick; queueLen bounds the tee
// channel (a full queue drops the batch — counted, never blocking ingestion).
// freeLen bounds the batches kept for reuse, and keepFrames the buffer of
// one: a batch whose frames outgrew a block was a giant frame, and is left
// to the GC. What the free list keeps is at most freeLen × keepFrames.
const (
	sweepPeriod = 10 * time.Second
	queueLen    = 256
	freeLen     = 64
	keepFrames  = DefaultBlockBytes
)

// Metrics are the Store's counters, each series declared where it is
// counted (see obs.WriteMetrics); the server mounts them on its /metrics
// under armus_serve_segment_.
type Metrics struct {
	Batches           obs.Counter `metric:"batches_total" help:"Event batches accepted by the segment tee."`
	BatchesDropped    obs.Counter `metric:"batches_dropped_total" help:"Tee batches dropped on a full archive queue."`
	Events            obs.Counter `metric:"events_total" help:"Events archived into trace segments."`
	VerdictsArchived  obs.Counter `metric:"verdicts_total" help:"Verdict events archived (checkpoints, rejections, reports)."`
	BytesWritten      obs.Counter `metric:"bytes_written_total" help:"Compressed bytes written to segment files."`
	Sealed            obs.Counter `metric:"sealed_total" help:"Segments sealed (rotation, idle age, session GC, shutdown)."`
	ActiveWriters     obs.Gauge   `metric:"active_writers" help:"Sessions with an open (active) segment writer."`
	Errors            obs.Counter `metric:"errors_total" help:"Segment write, seal or scan failures."`
	QuarantinedFiles  obs.Counter `metric:"quarantined_total" help:"Segment files quarantined (corrupt or crash leftovers)."`
	SessionsQuiesced  obs.Counter `metric:"sessions_quiesced_total" help:"Segment writers sealed for idleness or session GC."`
	RetainedSegments  obs.Counter `metric:"retention_segments_total" help:"Segments reclaimed by the retention manager."`
	RetainedBytes     obs.Counter `metric:"retention_bytes_total" help:"Bytes reclaimed by the retention manager."`
	RetentionSweeps   obs.Counter `metric:"retention_sweeps_total" help:"Retention/idle-seal sweep passes completed."`
	OldestSealedNanos obs.Gauge   `metric:"oldest_sealed_nanos" help:"Seal time (UnixNano) of the oldest retained segment."`
}

// Batch is one tee unit: a run of pre-framed events for one session.
// Obtain from NewBatch, hand to Append (which always takes ownership).
type Batch struct {
	Session string
	Mode    uint8
	// Frames holds trace.AppendEventFrame-encoded events, Events of them.
	Frames []byte
	Events int
	// Verdicts lists batch-relative indexes of verdict events.
	Verdicts []int

	seal bool
}

func (b *Batch) reset() {
	b.Session, b.Mode = "", 0
	b.Frames = b.Frames[:0]
	b.Events = 0
	b.Verdicts = b.Verdicts[:0]
	b.seal = false
}

// Store tees event batches into per-session segment Writers from a
// single goroutine — the same bounded-channel/single-writer pattern as
// the server's snapshot persister: the hot path only encodes frames and
// performs one non-blocking channel send; every file operation happens
// here. The same goroutine runs the retention sweep, so writers, files
// and the retention cache are single-owner and lock-free.
type Store struct {
	cfg  Config
	ch   chan *Batch
	done chan struct{}
	// free holds handled batches for NewBatch. A GC does not empty it, as
	// it would a pool of package sync: the archive's allocation rate, not
	// its live set, sets the server's peak RSS.
	free chan *Batch
	// enc is the block encoder of every writer the tee goroutine runs.
	enc blockEncoder

	m Metrics

	// goroutine-owned state
	writers map[string]*Writer
	// seqs remembers the last used sequence number per escaped session
	// stem, seeded by one directory scan at startup and updated as
	// writers seal, so creating a writer never re-scans the directory.
	seqs map[string]uint64
	// retCache caches (size, sealedUnixNano) per sealed file so the
	// sweep does not re-read every index every tick.
	retCache map[string]retInfo
}

type retInfo struct {
	size   int64
	sealed int64
}

// NewStore creates Dir if needed and starts the tee goroutine.
func NewStore(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("segment: Dir required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	st := &Store{
		cfg:      cfg,
		ch:       make(chan *Batch, queueLen),
		done:     make(chan struct{}),
		free:     make(chan *Batch, freeLen),
		writers:  make(map[string]*Writer),
		seqs:     make(map[string]uint64),
		retCache: make(map[string]retInfo),
	}
	// One startup scan covers every session: seed the per-session
	// sequence counters and quarantine crash-leftover active files.
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		esc, seq, ok := parseSegName(name)
		if !ok {
			continue
		}
		if seq > st.seqs[esc] {
			st.seqs[esc] = seq
		}
		if strings.HasSuffix(name, ".seg.active") {
			// A previous process died mid-segment: no index, no seal,
			// never queryable. Quarantine it.
			p := filepath.Join(cfg.Dir, name)
			if os.Rename(p, p+".quarantined") == nil {
				st.m.QuarantinedFiles.Add(1)
			}
		}
	}
	go st.run()
	return st, nil
}

// NewBatch returns a reset Batch, a reused one when the free list has
// one. Append takes it back.
func (st *Store) NewBatch() *Batch {
	select {
	case b := <-st.free:
		b.reset()
		return b
	default:
		return new(Batch)
	}
}

// Append enqueues the batch for archiving, never blocking: on a full
// queue the batch is dropped and counted, exactly like the snapshot
// persister — archive completeness is sacrificed before ingest latency.
// Ownership of b always transfers; the caller must not touch it after.
func (st *Store) Append(b *Batch) bool {
	events, verdicts := int64(b.Events), int64(len(b.Verdicts)) // b is the tee goroutine's once sent
	select {
	case st.ch <- b:
		st.m.Batches.Add(1)
		st.m.Events.Add(events)
		st.m.VerdictsArchived.Add(verdicts)
		return true
	default:
		st.m.BatchesDropped.Add(1)
		st.Release(b)
		return false
	}
}

// Release returns a batch to the free list — for tee error paths that
// obtained a batch via NewBatch but never handed it to Append. A full free
// list, or a batch grown past keepFrames, leaves it to the GC.
func (st *Store) Release(b *Batch) {
	if cap(b.Frames) > keepFrames {
		return
	}
	select {
	case st.free <- b:
	default:
	}
}

// SealSession asks the tee goroutine to seal and release the session's
// writer — the server calls it when lease GC reclaims a session. Best
// effort: on a full queue the request is dropped (the idle-age sweep
// seals the writer shortly after anyway).
func (st *Store) SealSession(session string) {
	b := st.NewBatch()
	b.Session = session
	b.seal = true
	select {
	case st.ch <- b:
	default:
		st.Release(b)
	}
}

// Close drains the queue, seals every open writer, and stops the
// goroutine. Call only after every Append/SealSession producer has
// stopped (the server closes it after read loops and the sweeper exit).
func (st *Store) Close() {
	close(st.ch)
	<-st.done
}

// Metrics returns the live counters.
func (st *Store) Metrics() *Metrics { return &st.m }

func (st *Store) run() {
	defer close(st.done)
	tick := st.cfg.Clock.NewTicker(sweepPeriod)
	defer tick.Stop()
	for {
		select {
		case b, ok := <-st.ch:
			if !ok {
				st.shutdown()
				return
			}
			st.handle(b)
		case <-tick.C():
			st.sweep()
		}
	}
}

func (st *Store) shutdown() {
	for b := range st.ch { // the channel is closed; drain what was queued
		st.handle(b)
	}
	now := st.cfg.Clock.Now()
	for session, w := range st.writers {
		st.sealWriter(session, w, now)
	}
}

func (st *Store) handle(b *Batch) {
	defer st.Release(b)
	now := st.cfg.Clock.Now()
	if b.seal {
		if w, ok := st.writers[b.Session]; ok {
			st.sealWriter(b.Session, w, now)
			st.m.SessionsQuiesced.Add(1)
		}
		return
	}
	w, ok := st.writers[b.Session]
	if !ok {
		var err error
		w, err = NewWriter(WriterConfig{
			Dir: st.cfg.Dir, Session: b.Session, Mode: b.Mode,
			MaxAge: st.cfg.MaxAge, BlockBytes: st.cfg.BlockBytes,
			OnWrite:  func(n int) { st.m.BytesWritten.Add(int64(n)) },
			OnSealed: st.onSealed,
			StartSeq: st.seqs[EscapeSession(b.Session)],
			NoScan:   true,
		})
		if err != nil {
			st.m.Errors.Add(1)
			st.cfg.Logf("segment: open writer for %q: %v", b.Session, err)
			return
		}
		w.enc = &st.enc
		st.writers[b.Session] = w
		st.m.ActiveWriters.Store(int64(len(st.writers)))
	}
	if err := w.Append(b.Frames, b.Events, b.Verdicts, now); err != nil {
		st.m.Errors.Add(1)
		st.m.QuarantinedFiles.Add(1)
		st.cfg.Logf("segment: append for %q: %v", b.Session, err)
	}
}

func (st *Store) onSealed(path string, idx *Index) {
	st.m.Sealed.Add(1)
	if fi, err := os.Stat(path); err == nil {
		st.retCache[path] = retInfo{size: fi.Size(), sealed: idx.SealedUnixNano}
	}
}

func (st *Store) sealWriter(session string, w *Writer, now time.Time) {
	st.seqs[EscapeSession(session)] = w.Seq()
	if err := w.Seal(now); err != nil {
		st.m.Errors.Add(1)
		st.m.QuarantinedFiles.Add(1)
		st.cfg.Logf("segment: seal %q: %v", session, err)
	}
	delete(st.writers, session)
	st.m.ActiveWriters.Store(int64(len(st.writers)))
}

// sweep seals idle writers and enforces the retention policies. Runs on
// the tee goroutine, so it shares ownership of writers and files with
// the append path by construction.
func (st *Store) sweep() {
	now := st.cfg.Clock.Now()
	maxAge := st.cfg.MaxAge
	if maxAge <= 0 {
		maxAge = DefaultMaxAge
	}
	for session, w := range st.writers {
		if w.Active() && now.Sub(w.LastAppend()) >= maxAge {
			st.sealWriter(session, w, now)
			st.m.SessionsQuiesced.Add(1)
		}
	}
	st.retain(now)
	st.m.RetentionSweeps.Add(1)
}

// retain deletes sealed segments oldest-first until both retention
// policies hold. The active (`.seg.active`) file of any session is
// never a candidate: only files that already carry the `.seg` or
// `.quarantined` suffix are considered.
func (st *Store) retain(now time.Time) {
	if st.cfg.RetainBytes <= 0 && st.cfg.RetainAge <= 0 {
		return
	}
	entries, err := os.ReadDir(st.cfg.Dir)
	if err != nil {
		st.m.Errors.Add(1)
		st.cfg.Logf("segment: retention scan: %v", err)
		return
	}
	type cand struct {
		path   string
		size   int64
		sealed int64 // UnixNano; mtime fallback for quarantined files
	}
	var cands []cand
	seen := make(map[string]bool, len(entries))
	var total int64
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !(strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".quarantined")) {
			continue
		}
		path := filepath.Join(st.cfg.Dir, name)
		fi, err := ent.Info()
		if err != nil {
			continue
		}
		seen[path] = true
		ri, ok := st.retCache[path]
		if !ok || ri.size != fi.Size() {
			ri = retInfo{size: fi.Size(), sealed: fi.ModTime().UnixNano()}
			if strings.HasSuffix(name, ".seg") {
				if s, err := Open(path); err == nil {
					ri.sealed = s.Index.SealedUnixNano
					s.Close()
				} else {
					// Unreadable sealed segment: quarantine so queries and
					// future sweeps stop re-parsing it.
					st.m.Errors.Add(1)
					st.m.QuarantinedFiles.Add(1)
					st.cfg.Logf("segment: retention: %v", err)
					if os.Rename(path, path+".quarantined") == nil {
						delete(st.retCache, path)
						path += ".quarantined"
					}
				}
			}
			st.retCache[path] = ri
		}
		cands = append(cands, cand{path: path, size: ri.size, sealed: ri.sealed})
		total += ri.size
	}
	for p := range st.retCache {
		if !seen[p] {
			delete(st.retCache, p)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].sealed < cands[j].sealed })
	cutoff := int64(0)
	if st.cfg.RetainAge > 0 {
		cutoff = now.Add(-st.cfg.RetainAge).UnixNano()
	}
	oldest := int64(0)
	for i, c := range cands {
		expired := cutoff != 0 && c.sealed < cutoff
		over := st.cfg.RetainBytes > 0 && total > st.cfg.RetainBytes
		if !expired && !over {
			oldest = c.sealed
			break
		}
		if err := os.Remove(c.path); err != nil {
			st.m.Errors.Add(1)
			st.cfg.Logf("segment: retention remove %s: %v", filepath.Base(c.path), err)
			continue
		}
		delete(st.retCache, c.path)
		total -= c.size
		st.m.RetainedSegments.Add(1)
		st.m.RetainedBytes.Add(c.size)
		st.cfg.Logf("segment: retention reclaimed %s (%d bytes)", filepath.Base(c.path), c.size)
		if i == len(cands)-1 {
			oldest = 0
		}
	}
	st.m.OldestSealedNanos.Store(oldest)
}
