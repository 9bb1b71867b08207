package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"armus/internal/deps"
	"armus/internal/wire"
)

// The trace wire format follows the codec discipline of internal/dist's
// snapshot codec: hand-rolled varints (compact, allocation-light), every
// length validated before it is allocated, and a version baked into the
// magic so an incompatible change is rejected up front rather than
// misparsed. On top of that, traces are files that outlive the process that
// wrote them, so the format is framed and integrity-checked:
//
//	magic "ARMUSTR1"
//	header frame:  uvarint len, then
//	    uvarint headerVersion (1)
//	    uvarint mode                      (numeric core.Mode of the recorder)
//	    uvarint len(label), label bytes
//	event frames:  uvarint len (> 0), then
//	    uvarint kind, then per kind:
//	    register: varint task, varint phaser, varint phase, uvarint mode
//	    arrive:   varint task, varint phaser, varint phase
//	    drop:     varint task, varint phaser
//	    block:    status
//	    unblock:  varint task
//	    verdict:  uvarint verdictKind,
//	              status (rejected only),
//	              tasks, resources          (the cycle)
//	    re-block (kind 7): varint task, resources waitsFor,
//	              uvarint n, then n × (uvarint gap, varint phase delta)
//	    where status = wire.AppendBlocked, tasks = wire.AppendTasks and
//	    resources = wire.AppendResources
//	footer: uvarint 0 (end sentinel), then 4 bytes little-endian CRC-32
//	    (IEEE) over every preceding byte, magic through sentinel inclusive
//
// A re-block is a block frame that leans on the task's previous one: the
// task blocks again on the registrations of its last block frame (full or
// re-block; verdict frames do not count) earlier in the same stream — its
// reference — with the phasers in the reference's order, awaits the
// resources listed, and the n phases named advanced. Each change names its
// registration by the gap after the previous change's index (the first
// counts from -1) and carries the phase's signed difference from the
// reference. It decodes to an ordinary KindBlock event. Under Def. 4.1 a
// status is a pure function of its task, and consecutive statuses of one
// task mostly repeat it: a re-block carries only what moved.
//
// Block frames are numbered from 1 in stream order (the block ordinal). A
// re-block whose reference is missing or reblockWindow or more block frames
// back is corrupt, whatever a reader may still remember: see Ledger and
// Reblockable, the one statement of the rule for readers and writers.
//
// Varint framing lets a reader skip nothing and trust nothing: a frame
// length larger than what remains, an item count larger than the frame, an
// unknown kind (one that does not fit a byte included), unconsumed frame
// bytes, a missing sentinel or a CRC mismatch are all hard errors — a
// truncated or bit-rotted corpus file fails loudly instead of replaying a
// silently different execution.
// Signed fields use zig-zag varints so distributed IDs (site offsets near
// the top of the int64 range) round-trip compactly.

// traceMagic versions the wire format; bump the trailing digit on any
// incompatible change.
const traceMagic = "ARMUSTR1"

// headerVersion is the header layout version inside the current magic.
const headerVersion = 1

// maxTraceItems bounds every decoded length (items per list, bytes per
// label or frame) so corrupt input cannot make a reader allocate unbounded
// memory before validation catches it.
const maxTraceItems = 1 << 20

// writerFlushSize is how much WriteEvent lets accumulate before the writer
// pushes its buffer through on its own: file recordings reach the disk in
// page-sized writes, live streams flush explicitly.
const writerFlushSize = 4096

// Writer streams a trace to an io.Writer: header at creation, one framed
// event per WriteEvent, CRC footer at Close. Events are encoded in place
// into one output buffer, and the running CRC is fed once per flushed
// buffer (or per WriteFrames slab), not once per frame: a frame is a dozen
// bytes, far below where crc32's table-slicing and SIMD paths engage.
type Writer struct {
	w io.Writer
	// out holds encoded bytes not yet written; crc covers everything that
	// was, so out is folded in only when it leaves. A steady stream of
	// same-shaped events allocates nothing once out is warm.
	out []byte
	crc uint32
	err error
}

// NewWriter writes the magic and header for a trace with the given label
// and recording mode and returns the event writer.
func NewWriter(w io.Writer, label string, mode uint8) (*Writer, error) {
	tw := &Writer{w: w}
	// Headroom for the version/mode/length varints: the whole header frame
	// must stay under the reader's frame cap, or we would mint a trace no
	// reader accepts back.
	if len(label) > maxTraceItems-16 {
		return nil, fmt.Errorf("trace: label of %d bytes exceeds limit", len(label))
	}
	hdr := binary.AppendUvarint(nil, headerVersion)
	hdr = binary.AppendUvarint(hdr, uint64(mode))
	hdr = binary.AppendUvarint(hdr, uint64(len(label)))
	hdr = append(hdr, label...)
	tw.out = append(tw.out, traceMagic...)
	if err := tw.writeFrame(hdr); err != nil {
		return nil, err
	}
	return tw, nil
}

// writeFrame buffers one length-prefixed frame.
func (tw *Writer) writeFrame(payload []byte) error {
	if tw.err != nil {
		return tw.err
	}
	// Enforce the reader's frame cap at write time: an oversized event
	// must fail the recording, not mint a permanent artifact that every
	// future decode rejects.
	if len(payload) > maxTraceItems {
		tw.err = fmt.Errorf("trace: frame of %d bytes exceeds limit", len(payload))
		return tw.err
	}
	tw.out = binary.AppendUvarint(tw.out, uint64(len(payload)))
	tw.out = append(tw.out, payload...)
	return tw.spill()
}

// spill flushes once the buffer has grown past writerFlushSize.
func (tw *Writer) spill() error {
	if len(tw.out) < writerFlushSize {
		return nil
	}
	return tw.Flush()
}

// put feeds p to the CRC and writes it through.
func (tw *Writer) put(p []byte) error {
	tw.crc = crc32.Update(tw.crc, crc32.IEEETable, p)
	if _, err := tw.w.Write(p); err != nil {
		tw.err = err
	}
	return tw.err
}

// WriteEvent appends one framed event, encoded straight into the writer's
// buffer.
func (tw *Writer) WriteEvent(e Event) error {
	if tw.err != nil {
		return tw.err
	}
	out, err := AppendEventFrame(tw.out, e)
	if err != nil {
		tw.err = err
		return err
	}
	tw.out = out
	return tw.spill()
}

// AppendEventFrame appends the full wire framing of e — uvarint length
// prefix plus payload, exactly the bytes WriteEvent would emit — to buf and
// returns the extended slice. Frames accumulated this way are
// self-contained copies, safe to hand to another goroutine, and a run of
// them is byte-compatible with the event region of a trace stream: the SDK
// emitter (internal/client) and the server-side segment tee
// (internal/segment) build slabs of them, and WriteFrames / WriteRawFrames
// splice a slab into a valid trace.
func AppendEventFrame(buf []byte, e Event) ([]byte, error) {
	// Nearly every frame is shorter than 128 bytes, so its prefix is one
	// byte: reserve it and encode the payload behind it.
	payload, err := appendEvent(append(buf, 0), &e)
	if err != nil {
		return buf, err
	}
	return closeFrame(payload, len(buf))
}

// closeFrame writes the length prefix of the payload that follows the one
// reserved byte at frames[start].
func closeFrame(frames []byte, start int) ([]byte, error) {
	n := len(frames) - start - 1
	if n < 0x80 {
		frames[start] = byte(n)
		return frames, nil
	}
	if n > maxTraceItems {
		return frames[:start], fmt.Errorf("trace: frame of %d bytes exceeds limit", n)
	}
	// A longer prefix: grow by its extra bytes and shift the payload right
	// to make room (copy is memmove-safe).
	var pfx [binary.MaxVarintLen64]byte
	pl := binary.PutUvarint(pfx[:], uint64(n))
	frames = append(frames, pfx[1:pl]...)
	copy(frames[start+pl:], frames[start+1:start+1+n])
	copy(frames[start:], pfx[:pl])
	return frames, nil
}

// kindReblock is the frame kind of a re-block. It is not an event kind: a
// decoder expands the frame into a KindBlock event.
const kindReblock Kind = 7

// reblockWindow is how far back, in block frames, a re-block may reach for
// its reference, and so a bound on what a decoder must remember.
const reblockWindow = 128

// Reblockable is the reference rule. A writer may frame a task's next block
// as a re-block only when the task's last block frame — its reference, with
// block ordinal ref (0: none) — lies in the self-contained run being written
// (an SDK slab, an archive batch), whose first block frame would have
// ordinal start, and fewer than reblockWindow block frames before the new
// frame's ordinal next.
func Reblockable(ref, start, next uint64) bool {
	return ref != 0 && ref >= start && next-ref < reblockWindow
}

// AppendReblockFrame appends st, framed as a re-block of ref — the status of
// st's task in its last block frame — and reports true, or appends nothing
// and reports false when st does not register with ref's phasers in ref's
// order, the one shape a re-block can carry. The caller has checked
// Reblockable.
func AppendReblockFrame(buf []byte, ref, st *deps.Blocked) ([]byte, bool) {
	if st.Task != ref.Task || len(st.Regs) != len(ref.Regs) {
		return buf, false
	}
	moved := 0
	for i, r := range st.Regs {
		if r.Phaser != ref.Regs[i].Phaser {
			return buf, false
		}
		if r.Phase != ref.Regs[i].Phase {
			moved++
		}
	}
	frames := append(buf, 0, byte(kindReblock))
	frames = binary.AppendVarint(frames, int64(st.Task))
	frames = wire.AppendResources(frames, st.WaitsFor)
	frames = binary.AppendUvarint(frames, uint64(moved))
	last := -1
	for i, r := range st.Regs {
		if r.Phase != ref.Regs[i].Phase {
			frames = binary.AppendUvarint(frames, uint64(i-last-1))
			frames = binary.AppendVarint(frames, r.Phase-ref.Regs[i].Phase)
			last = i
		}
	}
	frames, err := closeFrame(frames, len(buf))
	return frames, err == nil
}

// NextFrame splits a run of AppendEventFrame-encoded frames into the first
// event payload and the remaining frames. Malformed framing (bad prefix,
// zero or over-limit length, short buffer) is an error. It is the one reader
// of a varint outside internal/wire: a prefix is one read, so a cursor
// (three calls where binary.Uvarint is inlined) would only add to the walk
// over an archived block, which is nothing but this function in a loop.
func NextFrame(frames []byte) (payload, rest []byte, err error) {
	n, sz := binary.Uvarint(frames)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("trace: bad frame length prefix")
	}
	if n == 0 || n > maxTraceItems || uint64(len(frames)-sz) < n {
		return nil, nil, fmt.Errorf("trace: frame length %d exceeds buffer", n)
	}
	return frames[sz : sz+int(n)], frames[sz+int(n):], nil
}

// DecodeFramePayload decodes one event payload (the bytes NextFrame yields)
// into e, reusing e's slice capacity exactly like Reader.NextInto. It keeps
// no state, so it refuses a re-block, which only its stream can expand (see
// Ledger).
func DecodeFramePayload(payload []byte, e *Event) error {
	return decodeEventInto(payload, e, nil)
}

// Ledger is what a decoder keeps of one stream to expand its re-blocks: per
// task, the registrations of its last block frame and that frame's block
// ordinal. Every reblockWindow block frames it forgets the entries that many
// or more back — no re-block may reach them — so it holds at most
// 2·reblockWindow tasks, however many the stream names. The zero value is
// ready for the start of a stream, and allocates nothing until it needs a
// task's entry; a stream that failed to decode is over, and so is its ledger.
// Tasks are found through an open-addressed table of 4·reblockWindow slots,
// so never more than half full, which forgetting rebuilds.
type Ledger struct {
	slots []uint16      // 1 + the index in ents, 0: empty
	ents  []ledgerEntry // live entries; forgotten ones wait behind len, for reuse
	n     uint64        // block frames decoded: the last one's ordinal
	ref   uint64        // the last frame was a re-block of block frame ref (0: it was not)
	hit   *ledgerEntry  // the entry a re-block being decoded refers to
	// When the last frame was a full block frame of a task with an entry,
	// prev is the ordinal of the task's block frame before it and prevRegs
	// that frame's registrations: the entry's slice, swapped out for this
	// scratch one rather than overwritten, so an archive can frame the full
	// frame as a re-block (Reader.AppendArchived).
	prev     uint64
	prevRegs []deps.Reg
}

type ledgerEntry struct {
	task deps.TaskID
	ord  uint64
	regs []deps.Reg
}

// ledgerSlotBits sizes the table at 4·reblockWindow slots: the constant
// below does not compile if it is smaller.
const ledgerSlotBits = 9

const _ = uint(1<<ledgerSlotBits - 4*reblockWindow)

// find returns t's entry, or nil and the empty slot where it would go:
// Fibonacci hashing and linear probing, as the server's netEffect.
func (l *Ledger) find(t deps.TaskID) (*ledgerEntry, int) {
	if l.slots == nil {
		l.slots = make([]uint16, 1<<ledgerSlotBits)
	}
	for h := int(uint64(t) * 0x9e3779b97f4a7c15 >> (64 - ledgerSlotBits)); ; h = (h + 1) & (1<<ledgerSlotBits - 1) {
		i := l.slots[h]
		if i == 0 {
			return nil, h
		}
		if ent := &l.ents[i-1]; ent.task == t {
			return ent, h
		}
	}
}

// Decode decodes the next event payload of the stream into e, as
// DecodeFramePayload does, expanding a re-block into the KindBlock event it
// stands for.
func (l *Ledger) Decode(payload []byte, e *Event) error {
	l.ref, l.hit, l.prev = 0, nil, 0
	if err := decodeEventInto(payload, e, l); err != nil {
		l.ref = 0
		return err
	}
	if e.Kind == kindReblock {
		e.Kind = KindBlock
	}
	if e.Kind == KindBlock {
		l.record(&e.Status)
	}
	return nil
}

// reblockInto reads a re-block's fields after its kind and expands them
// against the task's entry into e.
func (l *Ledger) reblockInto(c *wire.Cursor, e *Event) {
	t := deps.TaskID(c.Varint())
	e.Task, e.Status.Task = t, t
	e.Status.WaitsFor = c.ResourcesInto(e.Status.WaitsFor, maxTraceItems)
	ent, _ := l.find(t)
	if ent == nil || l.n+1-ent.ord >= reblockWindow {
		c.Fail(fmt.Errorf("task%d has no block frame among the last %d", t, reblockWindow))
		return
	}
	// The phases advance in the entry itself, which becomes the task's
	// entry for this frame: one copy, into e.
	regs := ent.regs
	moved := c.Uvarint()
	if moved > uint64(len(regs)) {
		c.Fail(fmt.Errorf("%d phases advanced of task%d's %d registrations", moved, t, len(regs)))
		return
	}
	for i := -1; moved > 0; moved-- {
		gap := c.Uvarint()
		if gap >= uint64(len(regs)-1-i) {
			c.Fail(fmt.Errorf("registration index past task%d's %d", t, len(regs)))
			return
		}
		i += int(gap) + 1
		regs[i].Phase += c.Varint()
	}
	e.Status.Regs = append(e.Status.Regs[:0], regs...)
	l.ref, l.hit = ent.ord, ent
}

// record files a decoded block frame's status as its task's entry (a
// re-block's is already there), and forgets what has fallen out of reach
// every reblockWindow block frames.
func (l *Ledger) record(st *deps.Blocked) {
	ent := l.hit
	if ent == nil {
		var h int
		if ent, h = l.find(st.Task); ent != nil {
			l.prev = ent.ord
			l.prevRegs, ent.regs = ent.regs, append(l.prevRegs[:0], st.Regs...)
		} else {
			// A new entry, in a forgotten one's storage if there is one.
			if k := len(l.ents); k == cap(l.ents) {
				l.ents = append(make([]ledgerEntry, 0, min(2*k+16, 2*reblockWindow)), l.ents...)
			}
			l.ents = l.ents[:len(l.ents)+1]
			l.slots[h] = uint16(len(l.ents))
			ent = &l.ents[len(l.ents)-1]
			ent.task, ent.regs = st.Task, append(ent.regs[:0], st.Regs...)
		}
	}
	l.n++
	ent.ord = l.n
	if l.n%reblockWindow == 0 {
		// Forget: the entries in reach go in front, the table is rebuilt.
		k := 0
		for i := range l.ents {
			if l.n-l.ents[i].ord < reblockWindow {
				l.ents[k], l.ents[i] = l.ents[i], l.ents[k]
				k++
			}
		}
		l.ents = l.ents[:k]
		clear(l.slots)
		for i := range l.ents {
			_, h := l.find(l.ents[i].task)
			l.slots[h] = uint16(i + 1)
		}
	}
}

// WriteFrames writes a slab of frames the caller built with
// AppendEventFrame — and therefore vouches for — through to the underlying
// writer: whatever was buffered before it goes first, then the slab itself
// with one CRC update and one Write, uncopied. It is the live stream's
// flush: the SDK emitter hands over everything that accumulated since its
// last write and the peer observes it at once.
func (tw *Writer) WriteFrames(frames []byte) error {
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(frames) == 0 {
		return nil
	}
	return tw.put(frames)
}

// WriteRawFrames appends a run of already-framed events from a source the
// caller does not vouch for (a decompressed segment block) to the trace
// verbatim, after validating the framing. It is how armus-trace export
// stitches archived segments back into a single valid trace without
// re-encoding every event.
func (tw *Writer) WriteRawFrames(frames []byte) error {
	if tw.err != nil {
		return tw.err
	}
	for rest := frames; len(rest) > 0; {
		var err error
		if _, rest, err = NextFrame(rest); err != nil {
			tw.err = err
			return err
		}
	}
	return tw.WriteFrames(frames)
}

// Flush forces any buffered frames through to the underlying writer without
// closing the stream. Live streams (the armus-serve wire protocol) flush
// after each batch so the peer observes events promptly; file writers can
// ignore it (Close flushes).
func (tw *Writer) Flush() error {
	if tw.err != nil || len(tw.out) == 0 {
		return tw.err
	}
	out := tw.out
	tw.out = out[:0]
	return tw.put(out)
}

// Close writes the end sentinel and the CRC footer and flushes. It does
// not close the underlying writer.
func (tw *Writer) Close() error {
	if tw.err != nil {
		return tw.err
	}
	tw.out = append(tw.out, 0) // uvarint 0 sentinel
	if err := tw.Flush(); err != nil {
		return err
	}
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], tw.crc)
	if _, err := tw.w.Write(foot[:]); err != nil {
		tw.err = err
	}
	return tw.err
}

func appendEvent(buf []byte, e *Event) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(e.Kind))
	switch e.Kind {
	case KindRegister:
		buf = binary.AppendVarint(buf, int64(e.Task))
		buf = binary.AppendVarint(buf, int64(e.Phaser))
		buf = binary.AppendVarint(buf, e.Phase)
		buf = binary.AppendUvarint(buf, uint64(e.Mode))
	case KindArrive:
		buf = binary.AppendVarint(buf, int64(e.Task))
		buf = binary.AppendVarint(buf, int64(e.Phaser))
		buf = binary.AppendVarint(buf, e.Phase)
	case KindDrop:
		buf = binary.AppendVarint(buf, int64(e.Task))
		buf = binary.AppendVarint(buf, int64(e.Phaser))
	case KindBlock:
		buf = wire.AppendBlocked(buf, &e.Status)
	case KindUnblock:
		buf = binary.AppendVarint(buf, int64(e.Task))
	case KindVerdict:
		buf = binary.AppendUvarint(buf, uint64(e.Verdict))
		switch e.Verdict {
		case VerdictRejected:
			buf = wire.AppendBlocked(buf, &e.Status)
		case VerdictReported:
		default:
			return nil, fmt.Errorf("trace: cannot encode verdict kind %d", e.Verdict)
		}
		buf = wire.AppendTasks(buf, e.Tasks)
		buf = wire.AppendResources(buf, e.Resources)
	default:
		return nil, fmt.Errorf("trace: cannot encode event kind %d", e.Kind)
	}
	return buf, nil
}

// readerWindow is the reader's initial window: how much one Read of the
// underlying stream may bring in. It grows only for a frame that does not
// fit, and never past the frame cap.
const readerWindow = 4096

// Reader streams a trace from an io.Reader, validating framing as it goes
// and the CRC footer at the end. Next returns io.EOF exactly once the
// whole trace has been read and verified.
//
// The reader owns its read window and decodes frames where they lie in it:
// no per-frame copy, and the running CRC is fed once per consumed span of
// the window (when the window is about to be refilled, and at the end
// sentinel) instead of once per length byte and once per frame. It is not
// a bufio.Reader with Peek/Discard because Peek cannot return a frame
// larger than the buffer (bufio.ErrBufferFull): that would need a second,
// copying path for big frames, and the CRC needs the span boundaries anyway.
type Reader struct {
	src io.Reader
	// buf[r:w] is read but not consumed; buf[crcFrom:r] is consumed but
	// not yet folded into crc. rerr is the source's sticky error, reported
	// once the window runs dry.
	buf           []byte
	r, w, crcFrom int
	rerr          error
	crc           uint32
	label         string
	mode          uint8
	done          bool
	err           error
	// payload is the event frame NextInto decoded last, where it lies in
	// the window, and ev the event it decoded it into (AppendArchived).
	payload []byte
	ev      *Event
	led     Ledger
}

// NewReader checks the magic, reads the header, and returns the event
// reader.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{src: r, buf: make([]byte, readerWindow)}
	if err := tr.needAll(len(traceMagic)); err != nil {
		return nil, fmt.Errorf("trace: short magic: %w", err)
	}
	if magic := tr.buf[:len(traceMagic)]; string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	tr.r = len(traceMagic)
	hdr, err := tr.frame()
	if err != nil {
		return nil, err
	}
	if hdr == nil {
		return nil, fmt.Errorf("trace: missing header frame")
	}
	c := wire.NewCursor(hdr)
	if ver := c.Uvarint(); ver != headerVersion {
		c.Fail(fmt.Errorf("unsupported header version %d", ver))
	}
	tr.mode = c.Uint8()
	tr.label = string(c.Bytes(maxTraceItems))
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	return tr, nil
}

// Label returns the header label.
func (tr *Reader) Label() string { return tr.label }

// Mode returns the numeric core.Mode of the recording verifier.
func (tr *Reader) Mode() uint8 { return tr.mode }

// settle folds the consumed span of the window into the running CRC.
func (tr *Reader) settle() {
	tr.crc = crc32.Update(tr.crc, crc32.IEEETable, tr.buf[tr.crcFrom:tr.r])
	tr.crcFrom = tr.r
}

// need makes at least n unconsumed bytes available at buf[r:], reading
// from the source only when the window holds fewer. It returns the
// source's error (io.EOF at a clean end) if the stream ends first; what
// did arrive stays in the window.
func (tr *Reader) need(n int) error {
	if tr.w-tr.r >= n {
		return nil
	}
	// Refill: the consumed span goes to the CRC, the rest slides to the
	// front, and the window grows if n exceeds it — at least doubling, so a
	// run of oversized frames does not reallocate per frame and the frames
	// behind a big one still arrive many to a Read.
	tr.settle()
	buf := tr.buf
	if n > len(buf) {
		buf = make([]byte, max(n, min(2*len(buf), maxTraceItems)))
	}
	tr.w = copy(buf, tr.buf[tr.r:tr.w])
	tr.buf, tr.r, tr.crcFrom = buf, 0, 0
	for empty := 0; tr.w-tr.r < n; {
		if tr.rerr != nil {
			return tr.rerr
		}
		m, err := tr.src.Read(tr.buf[tr.w:])
		tr.w += m
		tr.rerr = err
		if m > 0 || err != nil {
			empty = 0
		} else if empty++; empty >= 100 {
			tr.rerr = io.ErrNoProgress
		}
	}
	return nil
}

// needAll is need with io.ReadFull's error convention: io.EOF only when
// nothing at all arrived, io.ErrUnexpectedEOF when the stream ended part
// way through the n bytes.
func (tr *Reader) needAll(n int) error {
	err := tr.need(n)
	if err == io.EOF && tr.w > tr.r {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// truncated reports a stream that ended inside a frame.
func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("trace: truncated: %w", err)
}

// frameLen reads a frame's uvarint length prefix. Like encoding/binary it
// refuses a tenth byte above 1: the value would not fit 64 bits.
func (tr *Reader) frameLen() (uint64, error) {
	var v uint64
	for shift := 0; ; shift += 7 {
		if err := tr.need(1); err != nil {
			return 0, truncated(err)
		}
		b := tr.buf[tr.r]
		tr.r++
		if shift == 63 && b > 1 {
			return 0, fmt.Errorf("trace: bad frame length prefix")
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
}

// frame returns the next frame's payload as a view into the window, valid
// until the next call. It returns (nil, nil) at the end sentinel, after
// verifying the CRC footer and that nothing trails it.
func (tr *Reader) frame() ([]byte, error) {
	// A frame with a one-byte prefix that lies whole in the window is sliced
	// in place; the rest, and a frame on an empty window, are read below.
	if r := tr.r; r < tr.w {
		if n := int(tr.buf[r]); n > 0 && n < 0x80 && r+1+n <= tr.w {
			tr.r = r + 1 + n
			return tr.buf[r+1 : tr.r], nil
		}
	}
	n, err := tr.frameLen()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		// End sentinel: the CRC footer covers everything read so far
		// (sentinel included) and must be the final bytes of the stream.
		tr.settle()
		want := tr.crc
		if err := tr.needAll(4); err != nil {
			return nil, fmt.Errorf("trace: short CRC footer: %w", err)
		}
		got := binary.LittleEndian.Uint32(tr.buf[tr.r:])
		tr.r += 4
		if got != want {
			return nil, fmt.Errorf("trace: CRC mismatch: footer %08x, computed %08x", got, want)
		}
		// Only an actual extra byte is trailing garbage. Any read ERROR
		// here is irrelevant: the trace is complete and CRC-verified, and
		// a live transport (armus-serve) may well deliver a reset instead
		// of a tidy EOF right after the footer.
		if tr.need(1) == nil {
			return nil, fmt.Errorf("trace: trailing byte 0x%02x after CRC footer", tr.buf[tr.r])
		}
		return nil, nil
	}
	if n > maxTraceItems {
		return nil, fmt.Errorf("trace: frame of %d bytes exceeds limit", n)
	}
	if err := tr.need(int(n)); err != nil {
		return nil, truncated(err)
	}
	payload := tr.buf[tr.r : tr.r+int(n)]
	tr.r += int(n)
	return payload, nil
}

// Next returns the next event. It returns io.EOF after the final event,
// once the end sentinel and CRC footer have been verified.
func (tr *Reader) Next() (Event, error) {
	var e Event
	if err := tr.NextInto(&e); err != nil {
		return Event{}, err
	}
	return e, nil
}

// NextInto is Next decoding into e, reusing e's slice capacity: the
// armus-serve ingest loop runs it per event with zero steady-state
// allocations. The decoded event aliases e's storage, which the NEXT
// NextInto call overwrites — callers that keep an event must copy it
// first.
func (tr *Reader) NextInto(e *Event) error {
	if tr.err != nil {
		return tr.err
	}
	if tr.done {
		return io.EOF
	}
	payload, err := tr.frame()
	if err == nil && payload != nil {
		err = tr.led.Decode(payload, e)
	}
	tr.payload, tr.ev = nil, nil
	if err != nil {
		tr.err = err
		return err
	}
	if payload == nil {
		tr.done = true
		return io.EOF
	}
	tr.payload, tr.ev = payload, e
	return nil
}

// AppendArchived appends the frame the last successful NextInto decoded to
// buf, framed for an archive batch — a run that must decode on its own, with
// an empty Ledger — whose first block frame takes block ordinal start:
//   - a re-block whose reference lies before start, as the full block frame
//     it stands for;
//   - a full block frame whose task's previous block frame lies in the batch
//     (Reblockable), with the same phasers in the same order, as a re-block
//     of that frame;
//   - anything else verbatim, as the decoder accepted it.
//
// Either way the batch decodes to the events the stream did, however its
// sender framed them. The frame is read where it lies in the reader's
// window, so call this before the next read. It fails, appending nothing,
// only for a status too large for any frame.
func (tr *Reader) AppendArchived(buf []byte, start uint64) ([]byte, error) {
	l := &tr.led
	switch {
	case l.ref != 0 && !Reblockable(l.ref, start, l.n):
		return AppendEventFrame(buf, *tr.ev)
	case l.prev != 0 && Reblockable(l.prev, start, l.n):
		ref := deps.Blocked{Task: tr.ev.Status.Task, Regs: l.prevRegs}
		if out, ok := AppendReblockFrame(buf, &ref, &tr.ev.Status); ok {
			return out, nil
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(tr.payload)))
	return append(buf, tr.payload...), nil
}

// Blocks returns how many block frames, full and re-block, the reader has
// decoded: the block ordinal of the last one.
func (tr *Reader) Blocks() uint64 { return tr.led.n }

// Ref returns, when the last frame decoded was a re-block, the block
// ordinal of its reference, and 0 otherwise.
func (tr *Reader) Ref() uint64 { return tr.led.ref }

// Buffered reports how many undecoded bytes sit in the reader's window —
// the live ingest loop uses it to batch greedily (keep decoding while more
// frames are already in memory) without ever blocking mid-batch.
func (tr *Reader) Buffered() int { return tr.w - tr.r }

// resetEvent zeroes e while keeping its slice storage for reuse, field by
// field: zeroing the whole event and putting the slices back costs more.
func resetEvent(e *Event) {
	e.Kind, e.Task, e.Phaser, e.Phase, e.Mode, e.Status.Task, e.Verdict = 0, 0, 0, 0, 0, 0, 0
	e.Status.WaitsFor, e.Status.Regs = e.Status.WaitsFor[:0], e.Status.Regs[:0]
	e.Tasks, e.Resources = e.Tasks[:0], e.Resources[:0]
}

// decodeEventInto decodes one event frame into e, reusing e's slice
// capacity: a caller feeding a steady stream of same-shaped events through
// the same Event (the armus-serve ingest loop) allocates nothing once the
// buffers are warm. A re-block is read against l, and refused without one.
// On error e is left in an unspecified (but safely reusable) state.
func decodeEventInto(frame []byte, e *Event, l *Ledger) error {
	if decodeOneByte(frame, e) {
		return nil
	}
	return decodeCursor(frame, e, l)
}

// oneByteLen is the length of a kind's frame of one-byte varints: task,
// phaser, phase, mode, each kind a prefix of the one before (0: none).
var oneByteLen = [...]int{KindRegister: 5, KindArrive: 4, KindDrop: 3, KindUnblock: 2}

// decodeOneByte decodes in one pass a register, arrive, drop or unblock
// frame of one-byte varints (task, phaser, phase in -64..63), leaving e as
// decodeCursor would. Any other frame it turns away, e untouched: by its
// length if a field is wider, else by wire.OneByte.
func decodeOneByte(p []byte, e *Event) bool {
	if len(p) < 2 || int(p[0]) >= len(oneByteLen) || oneByteLen[p[0]] != len(p) || !wire.OneByte(p) {
		return false
	}
	var f [5]byte
	copy(f[:], p)
	resetEvent(e)
	e.Kind, e.Task, e.Phaser = Kind(f[0]), deps.TaskID(wire.Zigzag(f[1])), deps.PhaserID(wire.Zigzag(f[2]))
	e.Phase, e.Mode = wire.Zigzag(f[3]), f[4]
	return true
}

// decodeCursor is decodeEventInto for any frame, field by field.
func decodeCursor(frame []byte, e *Event, l *Ledger) error {
	c := wire.NewCursor(frame)
	resetEvent(e)
	e.Kind = Kind(c.Uint8())
	switch e.Kind {
	case KindRegister:
		e.Task = deps.TaskID(c.Varint())
		e.Phaser = deps.PhaserID(c.Varint())
		e.Phase = c.Varint()
		e.Mode = c.Uint8()
	case KindArrive:
		e.Task = deps.TaskID(c.Varint())
		e.Phaser = deps.PhaserID(c.Varint())
		e.Phase = c.Varint()
	case KindDrop:
		e.Task = deps.TaskID(c.Varint())
		e.Phaser = deps.PhaserID(c.Varint())
	case KindBlock:
		c.BlockedInto(&e.Status, maxTraceItems)
		e.Task = e.Status.Task
	case kindReblock:
		if l == nil {
			c.Fail(errors.New("decodes only in the stream it came in"))
			break
		}
		l.reblockInto(&c, e)
	case KindUnblock:
		e.Task = deps.TaskID(c.Varint())
	case KindVerdict:
		e.Verdict = VerdictKind(c.Uint8())
		switch e.Verdict {
		case VerdictRejected:
			c.BlockedInto(&e.Status, maxTraceItems)
			e.Task = e.Status.Task
		case VerdictReported:
		default:
			c.Fail(fmt.Errorf("unknown verdict kind %d", e.Verdict))
		}
		e.Tasks = c.TasksInto(e.Tasks, maxTraceItems)
		e.Resources = c.ResourcesInto(e.Resources, maxTraceItems)
	default:
		c.Fail(fmt.Errorf("unknown event kind %d", e.Kind))
	}
	if err := c.Done(); err != nil {
		return fmt.Errorf("trace: %v frame: %w", e.Kind, err)
	}
	return nil
}

// Encode writes the whole trace to w: header, every event, CRC footer.
func Encode(w io.Writer, t *Trace) error {
	tw, err := NewWriter(w, t.Label, t.Mode)
	if err != nil {
		return err
	}
	for _, e := range t.Events {
		if err := tw.WriteEvent(e); err != nil {
			return err
		}
	}
	return tw.Close()
}

// Decode parses a complete encoded trace, validating framing and CRC. Any
// malformation is an error.
func Decode(data []byte) (*Trace, error) { return readAll(bytes.NewReader(data)) }

// readAll drains the trace stream src into a Trace.
func readAll(src io.Reader) (*Trace, error) {
	r, err := NewReader(src)
	if err != nil {
		return nil, err
	}
	t := &Trace{Label: r.Label(), Mode: r.Mode()}
	for {
		e, err := r.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Events = append(t.Events, e)
	}
}

// WriteFile encodes the trace to path (0644, truncating).
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile decodes the trace at path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := readAll(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
