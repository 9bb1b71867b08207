// Package segment is the durable trace archive behind armus-serve's
// -segment-dir flag: a segmented write-ahead store for ingest streams,
// with per-segment micro-indexes for query and a retention manager for
// expiry (the segmented-write/micro-index/expiry architecture of log
// stores, applied to verification traces).
//
// Because the armus-serve wire format IS the internal/trace stream, every
// accepted connection is a replayable record of a real execution. The
// server tees each decoded event batch — off the verification hot path, same
// bounded-channel/single-writer discipline as the snapshot persister —
// into per-session rotating segment files written by Store's single
// goroutine. A segment holds a run of DEFLATE-compressed blocks of trace
// event frames, is sealed with a footer micro-index (session, event
// count, time range stamped by the injectable internal/clock, verdict
// ordinals) plus CRC-32 seals, and is renamed from `.seg.active` to
// `.seg` only once sealed — so queries and retention only ever see
// complete, integrity-checked files. Corrupt or truncated segments are
// quarantined (renamed `*.quarantined`), never parsed further and never
// fatal to the tee or a query.
//
// The reader half (Scan, Open, Stitch) answers the operator's question
// "show me every verdict transition for session X in the last hour"
// from the indexes alone, decompressing only the blocks that hold the
// requested events, and can stitch a session's segments back into a
// single valid trace stream that replays verbatim through the
// internal/trace/replay pipelines. docs/SEGMENT_FORMAT.md is the
// byte-level specification; docs/OPERATIONS.md covers running it.
package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"armus/internal/wire"
)

// Magic identifies a segment file; the trailing digit is the format
// version and is bumped on any incompatible change.
const Magic = "ARMUSSG1"

// trailerMagic terminates every sealed segment. Its presence at EOF is
// the cheapest possible "is this sealed and plausibly intact" probe.
const trailerMagic = "ASEG"

// trailerLen is the fixed byte length of the trailer: index length (4),
// index CRC (4), file CRC (4), trailer magic (4).
const trailerLen = 16

// headerVersion / indexVersion are the layout versions inside the
// current magic for the header frame and footer index respectively.
const (
	headerVersion = 1
	indexVersion  = 1
)

// Caps validated before any allocation while parsing, so a corrupt or
// hostile file cannot make a reader allocate unbounded memory.
const (
	maxSessionLen = 1 << 12 // bytes of session name
	maxBlocks     = 1 << 20 // blocks per segment
	maxBlockLen   = 1 << 30 // compressed or raw bytes per block
	maxIndexLen   = 1 << 26 // bytes of encoded index
	// maxVerdictOrdinals caps the per-segment verdict ordinal list; a
	// segment with more verdicts keeps an exact count but marks the list
	// truncated, and readers fall back to scanning every block.
	maxVerdictOrdinals = 1 << 12
)

// BlockInfo describes one compressed block. All block metadata lives in
// the footer index — the data region is raw concatenated DEFLATE
// streams with no inline framing — so a reader can locate, verify and
// decompress any single block without touching the others.
type BlockInfo struct {
	// Offset is the block's first byte in the file. It is not stored:
	// decode reconstructs it cumulatively from DataStart and CompLen.
	Offset int64
	// CompLen / RawLen are the compressed (on-disk) and decompressed
	// byte lengths of the block.
	CompLen int64
	RawLen  int64
	// Events is the number of event frames in the block.
	Events int64
	// CRC is CRC-32 (IEEE) over the compressed bytes.
	CRC uint32
	// FirstUnixNano / LastUnixNano bound the arrival times (Clock.Now at
	// tee time) of the block's events.
	FirstUnixNano int64
	LastUnixNano  int64
}

// Index is the footer micro-index of a sealed segment: everything a
// query needs to decide whether the segment (or any block in it) is
// relevant, without decompressing data.
type Index struct {
	Version int
	// Mode is the numeric core.Mode of the session (same encoding as the
	// trace header).
	Mode uint8
	// Seq orders a session's segments; Stitch concatenates by Seq.
	Seq uint64
	// Session is the session name exactly as the client presented it
	// (filenames carry only an escaped form).
	Session string
	// CreatedUnixNano / SealedUnixNano are Clock.Now at open and seal.
	CreatedUnixNano int64
	SealedUnixNano  int64
	// Events is the total event count across all blocks.
	Events int64
	// FirstUnixNano / LastUnixNano bound the arrival times of all events.
	FirstUnixNano int64
	LastUnixNano  int64
	// Verdicts is the exact number of verdict events (gate rejections,
	// detector reports, client checkpoints) in the segment.
	Verdicts int64
	// VerdictOrdinals lists the 0-based event ordinals of verdict events,
	// ascending, capped at maxVerdictOrdinals (VerdictsTruncated set when
	// the cap was hit). Readers use it to decompress only the blocks that
	// contain verdict transitions.
	VerdictOrdinals   []int64
	VerdictsTruncated bool
	// DataStart is the file offset of the first block (end of the header
	// frame); it makes the index self-sufficient for locating blocks.
	DataStart int64
	Blocks    []BlockInfo
}

// appendIndex encodes idx (the footer payload; CRCs and length live in
// the trailer, not here).
func appendIndex(buf []byte, idx *Index) []byte {
	buf = binary.AppendUvarint(buf, indexVersion)
	buf = binary.AppendUvarint(buf, uint64(idx.Mode))
	buf = binary.AppendUvarint(buf, idx.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(idx.Session)))
	buf = append(buf, idx.Session...)
	buf = binary.AppendVarint(buf, idx.CreatedUnixNano)
	buf = binary.AppendVarint(buf, idx.SealedUnixNano)
	buf = binary.AppendUvarint(buf, uint64(idx.Events))
	buf = binary.AppendVarint(buf, idx.FirstUnixNano)
	buf = binary.AppendVarint(buf, idx.LastUnixNano)
	buf = binary.AppendUvarint(buf, uint64(idx.Verdicts))
	trunc := uint64(0)
	if idx.VerdictsTruncated {
		trunc = 1
	}
	buf = binary.AppendUvarint(buf, trunc)
	buf = binary.AppendUvarint(buf, uint64(len(idx.VerdictOrdinals)))
	prev := int64(0)
	for _, o := range idx.VerdictOrdinals {
		buf = binary.AppendUvarint(buf, uint64(o-prev)) // ascending: deltas are non-negative
		prev = o
	}
	buf = binary.AppendUvarint(buf, uint64(idx.DataStart))
	buf = binary.AppendUvarint(buf, uint64(len(idx.Blocks)))
	for _, b := range idx.Blocks {
		buf = binary.AppendUvarint(buf, uint64(b.CompLen))
		buf = binary.AppendUvarint(buf, uint64(b.RawLen))
		buf = binary.AppendUvarint(buf, uint64(b.Events))
		buf = binary.AppendUvarint(buf, uint64(b.CRC))
		buf = binary.AppendVarint(buf, b.FirstUnixNano)
		buf = binary.AppendVarint(buf, b.LastUnixNano)
	}
	return buf
}

// parseIndex decodes and validates an index payload: appendIndex's fields
// in order, each count checked against its cap and the bytes left before
// anything is allocated (wire.Cursor.Length).
func parseIndex(data []byte) (*Index, error) {
	c := wire.NewCursor(data)
	if ver := c.Uvarint(); ver != indexVersion {
		c.Fail(fmt.Errorf("unsupported index version %d", ver))
	}
	idx := &Index{Version: indexVersion}
	idx.Mode = c.Uint8()
	idx.Seq = c.Uvarint()
	idx.Session = string(c.Bytes(maxSessionLen))
	idx.CreatedUnixNano = c.Varint()
	idx.SealedUnixNano = c.Varint()
	idx.Events = int64(c.Uvarint())
	idx.FirstUnixNano = c.Varint()
	idx.LastUnixNano = c.Varint()
	idx.Verdicts = int64(c.Uvarint())
	trunc := c.Uvarint()
	if trunc > 1 {
		c.Fail(fmt.Errorf("bad truncation flag %d", trunc))
	}
	idx.VerdictsTruncated = trunc == 1
	if no := c.Length(maxVerdictOrdinals); no > 0 {
		idx.VerdictOrdinals = make([]int64, no)
		ord := int64(0)
		for i := range idx.VerdictOrdinals {
			ord += int64(c.Uvarint())
			if ord < 0 || ord >= idx.Events {
				c.Fail(fmt.Errorf("verdict ordinal %d out of range", ord))
			}
			idx.VerdictOrdinals[i] = ord
		}
	}
	idx.DataStart = int64(c.Uvarint())
	idx.Blocks = make([]BlockInfo, c.Length(maxBlocks))
	off, total := idx.DataStart, int64(0)
	for i := range idx.Blocks {
		b := &idx.Blocks[i]
		b.Offset = off
		cl, rl, be, crc := c.Uvarint(), c.Uvarint(), c.Uvarint(), c.Uvarint()
		if cl > maxBlockLen || rl > maxBlockLen || be > rl {
			c.Fail(fmt.Errorf("block %d sizes out of range", i))
		}
		if crc > math.MaxUint32 {
			c.Fail(fmt.Errorf("block %d CRC out of range", i))
		}
		b.CompLen, b.RawLen, b.Events, b.CRC = int64(cl), int64(rl), int64(be), uint32(crc)
		b.FirstUnixNano = c.Varint()
		b.LastUnixNano = c.Varint()
		off += b.CompLen
		total += b.Events
	}
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("segment: index: %w", err)
	}
	if total != idx.Events {
		return nil, fmt.Errorf("segment: index event count %d != block sum %d", idx.Events, total)
	}
	return idx, nil
}

// crcIEEE is a shorthand used throughout the package.
func crcIEEE(p []byte) uint32 { return crc32.ChecksumIEEE(p) }
