package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// WriterConfig configures one session's segment writer.
type WriterConfig struct {
	Dir     string
	Session string
	Mode    uint8
	// MaxBytes rotates (seals) a segment once its on-disk size reaches
	// this many bytes; <= 0 means DefaultMaxBytes. Rotation is checked at
	// batch boundaries only, so a segment boundary always lands between
	// events, never inside one.
	MaxBytes int64
	// MaxAge rotates a segment once it has been open this long; <= 0
	// means DefaultMaxAge.
	MaxAge time.Duration
	// BlockBytes is the most raw (uncompressed) bytes a block holds: the
	// pending block is compressed and flushed before the batch that would
	// take it past this size (and at once when full), so only a batch
	// larger than BlockBytes, a block by itself, exceeds it; <= 0 means
	// DefaultBlockBytes.
	BlockBytes int
	// OnWrite, if set, observes every file write (metrics hook).
	OnWrite func(n int)
	// OnSealed, if set, observes every sealed segment.
	OnSealed func(path string, idx *Index)
	// StartSeq, with NoScan, seeds the sequence counter (sequences resume
	// after it). The Store scans the directory once at startup and seeds
	// every writer from that scan, instead of paying one directory scan
	// per session here.
	StartSeq uint64
	NoScan   bool
}

// Defaults for WriterConfig; shared with Store and the serve flags.
// DefaultBlockBytes bounds the longest stretch of work the archive does at
// once: a block is compressed in one call, and where the server shares one
// CPU a checkpoint that lands behind it waits for all of it. 32 KiB of
// re-block frames, which parse at two thirds the speed of full frames per
// byte, take about 0.3 ms on a 2-vCPU VM (EXPERIMENTS.md, "A re-block
// frame"); a block that does not compress is still one stored DEFLATE
// block.
const (
	DefaultMaxBytes   = 4 << 20
	DefaultMaxAge     = 5 * time.Minute
	DefaultBlockBytes = 32 << 10
)

// Writer appends event batches to rotating segment files for a single
// session. It is not safe for concurrent use: the Store goroutine is the
// single writer, exactly like the server's snapshot persister.
type Writer struct {
	cfg        WriterConfig
	esc        string // escaped session name, the filename stem
	seq        uint64 // last used sequence number
	active     *activeSeg
	lastAppend time.Time
}

// activeSeg is the open (not yet sealed) segment. The file itself is
// created lazily on the first block flush: until then every pending
// event lives in the raw buffer, so deferring creation changes nothing
// about durability and keeps the file-create syscall off the append
// path (and idle sessions never leave an empty `.seg.active` behind).
type activeSeg struct {
	f         *os.File
	pre       []byte // magic + header frame, written when the file is created
	path      string // .seg.active path
	finalPath string // .seg path after seal
	crc       uint32 // running CRC over every byte written
	off       int64  // bytes written
	dataStart int64

	raw         []byte // pending block, uncompressed
	blocks      []BlockInfo
	blockEvents int64
	blockFirst  int64
	blockLast   int64

	created   int64
	createdAt time.Time
	first     int64
	last      int64
	events    int64
	verdicts  int64
	ordinals  []int64
	truncated bool
}

// NewWriter prepares a writer for cfg.Session in cfg.Dir. Any leftover
// `.seg.active` file for the session (a crash mid-write) is quarantined,
// and the sequence counter resumes after the highest sequence already on
// disk. No file is created until the first block flush.
func NewWriter(cfg WriterConfig) (*Writer, error) {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.MaxAge <= 0 {
		cfg.MaxAge = DefaultMaxAge
	}
	if cfg.BlockBytes <= 0 {
		cfg.BlockBytes = DefaultBlockBytes
	}
	if len(cfg.Session) > maxSessionLen {
		return nil, fmt.Errorf("segment: session name of %d bytes exceeds limit", len(cfg.Session))
	}
	w := &Writer{cfg: cfg, esc: EscapeSession(cfg.Session)}
	if cfg.NoScan {
		w.seq = cfg.StartSeq
		return w, nil
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		esc, seq, ok := parseSegName(name)
		if !ok || esc != w.esc {
			continue
		}
		if seq > w.seq {
			w.seq = seq
		}
		if strings.HasSuffix(name, ".seg.active") {
			// A previous process died mid-segment: the file has no index
			// or seal and can never be queried. Quarantine it.
			p := filepath.Join(cfg.Dir, name)
			_ = os.Rename(p, p+".quarantined")
		}
	}
	return w, nil
}

// parseSegName splits a segment filename "<esc>-<seq>.<suffixes>" into
// its escaped session stem and sequence number. The stem may itself
// contain dashes; the sequence is the digits after the last dash before
// the first dot.
func parseSegName(name string) (esc string, seq uint64, ok bool) {
	dot := strings.IndexByte(name, '.')
	if dot < 0 {
		return "", 0, false
	}
	stem := name[:dot]
	dash := strings.LastIndexByte(stem, '-')
	if dash < 0 {
		return "", 0, false
	}
	n, err := strconv.ParseUint(stem[dash+1:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return stem[:dash], n, true
}

// EscapeSession maps an arbitrary session name to a safe filename stem:
// [A-Za-z0-9._-] pass through, everything else becomes %XX, and
// over-long results are truncated with an FNV-32 suffix so distinct
// sessions keep distinct stems. The mapping is deterministic; the exact
// session name is recovered from the index, never the filename.
func EscapeSession(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	esc := b.String()
	if len(esc) > 100 {
		h := fnv.New32a()
		h.Write([]byte(s))
		esc = fmt.Sprintf("%s~%08x", esc[:80], h.Sum32())
	}
	return esc
}

// LastAppend returns the time of the most recent Append (zero before the
// first); the Store's sweep uses it to seal idle sessions.
func (w *Writer) LastAppend() time.Time { return w.lastAppend }

// Seq returns the last used sequence number; the Store remembers it when
// it releases a writer, so a session that comes back resumes after it.
func (w *Writer) Seq() uint64 { return w.seq }

// Active reports whether an unsealed segment file is open.
func (w *Writer) Active() bool { return w.active != nil }

// ActivePath returns the `.seg.active` path, or "" when none is open.
func (w *Writer) ActivePath() string {
	if w.active == nil {
		return ""
	}
	return w.active.path
}

// open starts a new segment: it claims the next sequence number and
// prepares the magic and header frame, but creates no file — that
// happens in ensureFile on the first block flush.
func (w *Writer) open(now time.Time) {
	w.seq++
	base := fmt.Sprintf("%s-%08d.seg", w.esc, w.seq)
	final := filepath.Join(w.cfg.Dir, base)
	a := &activeSeg{
		path: final + ".active", finalPath: final,
		created: now.UnixNano(), createdAt: now,
	}
	if w.active != nil { // reuse the block buffer across rotations
		a.raw = w.active.raw[:0]
	}
	hdr := binary.AppendUvarint(nil, headerVersion)
	hdr = binary.AppendUvarint(hdr, uint64(w.cfg.Mode))
	hdr = binary.AppendUvarint(hdr, w.seq)
	hdr = binary.AppendUvarint(hdr, uint64(len(w.cfg.Session)))
	hdr = append(hdr, w.cfg.Session...)
	hdr = binary.AppendVarint(hdr, a.created)
	a.pre = append([]byte(Magic), binary.AppendUvarint(nil, uint64(len(hdr)))...)
	a.pre = append(a.pre, hdr...)
	w.active = a
}

// ensureFile creates the `.seg.active` file and writes the buffered
// magic and header frame in a single write. Idempotent.
func (a *activeSeg) ensureFile(onWrite func(int)) error {
	if a.f != nil {
		return nil
	}
	f, err := os.OpenFile(a.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	a.f = f
	pre := a.pre
	a.pre = nil
	if err := a.write(pre, onWrite); err != nil {
		return err
	}
	a.dataStart = a.off
	return nil
}

func (a *activeSeg) write(p []byte, onWrite func(int)) error {
	a.crc = crc32.Update(a.crc, crc32.IEEETable, p)
	n, err := a.f.Write(p)
	a.off += int64(n)
	if onWrite != nil && n > 0 {
		onWrite(n)
	}
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	return nil
}

// Append adds one batch of pre-framed events (trace.AppendEventFrame
// encoding, events frames total) stamped at now. verdictRel lists the
// batch-relative indexes of verdict events. Rotation by age is checked
// before the batch, rotation by size after it, and the pending block is
// cut before the batch that would overfill it — a batch, and therefore an
// event, is never split across segments or blocks.
func (w *Writer) Append(frames []byte, events int, verdictRel []int, now time.Time) error {
	if events <= 0 {
		return nil
	}
	if w.active != nil && now.Sub(w.active.createdAt) >= w.cfg.MaxAge {
		if err := w.Seal(now); err != nil {
			return err
		}
	}
	if w.active == nil {
		w.open(now)
	}
	a := w.active
	// Cut the pending block before the batch that would overfill it...
	if len(a.raw)+len(frames) > w.cfg.BlockBytes {
		if err := w.cutBlock(); err != nil {
			return err
		}
	}
	ns := now.UnixNano()
	if a.events == 0 {
		a.first = ns
	}
	a.last = ns
	if a.blockEvents == 0 {
		a.blockFirst = ns
	}
	a.blockLast = ns
	for _, rel := range verdictRel {
		a.verdicts++
		if len(a.ordinals) < maxVerdictOrdinals {
			a.ordinals = append(a.ordinals, a.events+int64(rel))
		} else {
			a.truncated = true
		}
	}
	a.raw = append(a.raw, frames...)
	a.events += int64(events)
	a.blockEvents += int64(events)
	w.lastAppend = now
	// ...and at once when this batch filled it, or is larger than a block
	// and so one by itself.
	if len(a.raw) >= w.cfg.BlockBytes {
		if err := w.cutBlock(); err != nil {
			return err
		}
	}
	if a.off >= w.cfg.MaxBytes {
		return w.Seal(now)
	}
	return nil
}

// cutBlock is flushBlock for Append. A failed block write leaves the file
// mid-block: no seal can make it valid, so it is quarantined and the next
// append starts afresh.
func (w *Writer) cutBlock() error {
	a := w.active
	err := w.flushBlock(a)
	if err != nil {
		w.active = nil
		err = w.abort(a, err)
	}
	return err
}

// flushBlock compresses the pending raw buffer into one DEFLATE stream
// and writes it, recording the block's metadata for the footer index. The
// encoder comes from a pool shared by every writer: only the goroutines
// compressing at the moment hold one.
func (w *Writer) flushBlock(a *activeSeg) error {
	if a == nil || a.blockEvents == 0 {
		return nil
	}
	enc := encoders.Get().(*blockEncoder)
	defer encoders.Put(enc)
	cb := enc.encode(a.raw)
	if err := a.ensureFile(w.cfg.OnWrite); err != nil {
		return err
	}
	if err := a.write(cb, w.cfg.OnWrite); err != nil {
		return err
	}
	a.blocks = append(a.blocks, BlockInfo{
		CompLen: int64(len(cb)), RawLen: int64(len(a.raw)),
		Events: a.blockEvents, CRC: crcIEEE(cb),
		FirstUnixNano: a.blockFirst, LastUnixNano: a.blockLast,
	})
	a.raw = a.raw[:0]
	a.blockEvents = 0
	return nil
}

// Seal flushes the pending block, writes the footer index and trailer,
// fsyncs, closes and renames `.seg.active` to `.seg`. A writer with no
// open segment seals trivially; the next Append opens a fresh segment.
func (w *Writer) Seal(now time.Time) error {
	a := w.active
	if a == nil {
		return nil
	}
	w.active = nil
	if err := w.flushBlock(a); err != nil {
		return w.abort(a, err)
	}
	if err := a.ensureFile(w.cfg.OnWrite); err != nil {
		return w.abort(a, err)
	}
	idx := &Index{
		Version: indexVersion, Mode: w.cfg.Mode, Seq: w.seq, Session: w.cfg.Session,
		CreatedUnixNano: a.created, SealedUnixNano: now.UnixNano(),
		Events: a.events, FirstUnixNano: a.first, LastUnixNano: a.last,
		Verdicts: a.verdicts, VerdictOrdinals: a.ordinals, VerdictsTruncated: a.truncated,
		DataStart: a.dataStart, Blocks: a.blocks,
	}
	ib := appendIndex(nil, idx)
	if len(ib) > maxIndexLen {
		return w.abort(a, fmt.Errorf("segment: index of %d bytes exceeds limit", len(ib)))
	}
	if err := a.write(ib, w.cfg.OnWrite); err != nil {
		return w.abort(a, err)
	}
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint32(tr[0:], uint32(len(ib)))
	binary.LittleEndian.PutUint32(tr[4:], crcIEEE(ib))
	binary.LittleEndian.PutUint32(tr[8:], a.crc) // covers magic..index
	copy(tr[12:], trailerMagic)
	if err := a.write(tr[:], w.cfg.OnWrite); err != nil {
		return w.abort(a, err)
	}
	if err := a.f.Sync(); err != nil {
		return w.abort(a, err)
	}
	if err := a.f.Close(); err != nil {
		_ = os.Rename(a.path, a.path+".quarantined")
		return fmt.Errorf("segment: %w", err)
	}
	if err := os.Rename(a.path, a.finalPath); err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	if w.cfg.OnSealed != nil {
		w.cfg.OnSealed(a.finalPath, idx)
	}
	return nil
}

// abort closes and quarantines a segment that failed mid-seal: the file
// is unusable (no valid trailer), but the bytes are kept for forensics
// and the writer stays usable for the next segment.
func (w *Writer) abort(a *activeSeg, cause error) error {
	if a.f != nil {
		_ = a.f.Close()
		_ = os.Rename(a.path, a.path+".quarantined")
	}
	return fmt.Errorf("segment: sealing %s failed (quarantined): %w", filepath.Base(a.path), cause)
}
