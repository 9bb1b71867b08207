package segment

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"armus/internal/trace"
)

// Segment is an open, sealed segment file: its validated footer index
// plus the handle needed to read blocks on demand. Close when done.
type Segment struct {
	Path  string
	Size  int64
	Index *Index

	f       *os.File
	fileCRC uint32       // trailer's CRC over [0, Size-trailerLen)
	rawBuf  bytes.Buffer // reused decompression buffer
	compBuf []byte       // reused compressed-block buffer
}

// Open reads and validates the trailer and footer index of the sealed
// segment at path, keeping the file open for block reads. The data
// region is NOT verified here (see Verify); the index itself is CRC
// checked, so Open on a truncated or corrupt file fails cleanly.
func Open(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := openFile(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func openFile(f *os.File, path string) (*Segment, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(Magic))+trailerLen {
		return nil, fmt.Errorf("segment: %s: too short (%d bytes) to be sealed", filepath.Base(path), size)
	}
	var tr [trailerLen]byte
	if _, err := f.ReadAt(tr[:], size-trailerLen); err != nil {
		return nil, fmt.Errorf("segment: %s: trailer: %w", filepath.Base(path), err)
	}
	if string(tr[12:16]) != trailerMagic {
		return nil, fmt.Errorf("segment: %s: missing trailer magic (unsealed or truncated)", filepath.Base(path))
	}
	indexLen := int64(binary.LittleEndian.Uint32(tr[0:4]))
	indexCRC := binary.LittleEndian.Uint32(tr[4:8])
	fileCRC := binary.LittleEndian.Uint32(tr[8:12])
	if indexLen > maxIndexLen || indexLen+int64(len(Magic))+trailerLen > size {
		return nil, fmt.Errorf("segment: %s: index length %d out of range", filepath.Base(path), indexLen)
	}
	ib := make([]byte, indexLen)
	if _, err := f.ReadAt(ib, size-trailerLen-indexLen); err != nil {
		return nil, fmt.Errorf("segment: %s: index: %w", filepath.Base(path), err)
	}
	if got := crcIEEE(ib); got != indexCRC {
		return nil, fmt.Errorf("segment: %s: index CRC mismatch (%08x != %08x)", filepath.Base(path), got, indexCRC)
	}
	idx, err := parseIndex(ib)
	if err != nil {
		return nil, fmt.Errorf("segment: %s: %w", filepath.Base(path), err)
	}
	var dataLen int64
	for i := range idx.Blocks {
		dataLen += idx.Blocks[i].CompLen
	}
	if idx.DataStart+dataLen != size-trailerLen-indexLen {
		return nil, fmt.Errorf("segment: %s: block extents do not match file size", filepath.Base(path))
	}
	return &Segment{Path: path, Size: size, Index: idx, f: f, fileCRC: fileCRC}, nil
}

// Close releases the file handle.
func (s *Segment) Close() error { return s.f.Close() }

// Verify streams the whole file through CRC-32 and compares it with the
// trailer's file seal, and checks the magic — the strongest integrity
// check short of decoding every event.
func (s *Segment) Verify() error {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	h := crc32.NewIEEE()
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(s.f, magic); err != nil {
		return fmt.Errorf("segment: %s: %w", filepath.Base(s.Path), err)
	}
	if string(magic) != Magic {
		return fmt.Errorf("segment: %s: bad magic %q", filepath.Base(s.Path), magic)
	}
	h.Write(magic)
	if _, err := io.CopyN(h, s.f, s.Size-trailerLen-int64(len(Magic))); err != nil {
		return fmt.Errorf("segment: %s: %w", filepath.Base(s.Path), err)
	}
	if got := h.Sum32(); got != s.fileCRC {
		return fmt.Errorf("segment: %s: file CRC mismatch (%08x != %08x)", filepath.Base(s.Path), got, s.fileCRC)
	}
	return nil
}

// Block returns the decompressed contents (a run of trace event frames)
// of block i, verifying the block CRC and the decompressed length. The
// returned slice is owned by the Segment and reused by the next Block
// call. The buffer grows as the block inflates, not to the length the
// index declares: that is the file's claim, and a small corrupt file could
// claim a gigabyte.
func (s *Segment) Block(i int) ([]byte, error) {
	if i < 0 || i >= len(s.Index.Blocks) {
		return nil, fmt.Errorf("segment: block %d out of range", i)
	}
	b := &s.Index.Blocks[i]
	if int64(cap(s.compBuf)) < b.CompLen {
		s.compBuf = make([]byte, b.CompLen)
	}
	cb := s.compBuf[:b.CompLen]
	if _, err := s.f.ReadAt(cb, b.Offset); err != nil {
		return nil, fmt.Errorf("segment: %s: block %d: %w", filepath.Base(s.Path), i, err)
	}
	if got := crcIEEE(cb); got != b.CRC {
		return nil, fmt.Errorf("segment: %s: block %d CRC mismatch (%08x != %08x)", filepath.Base(s.Path), i, got, b.CRC)
	}
	fr := flate.NewReader(bytes.NewReader(cb))
	defer fr.Close()
	s.rawBuf.Reset()
	n, err := s.rawBuf.ReadFrom(io.LimitReader(fr, b.RawLen+1))
	if err != nil || n < b.RawLen {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("segment: %s: block %d: short decompress: %w", filepath.Base(s.Path), i, err)
	}
	if n > b.RawLen {
		return nil, fmt.Errorf("segment: %s: block %d: decompressed past declared length", filepath.Base(s.Path), i)
	}
	return s.rawBuf.Bytes(), nil
}

// Events decodes every event in order, calling fn with the segment-wide
// ordinal and a reused Event (copy it to retain). Any framing or count
// mismatch is an error. Each block is decoded with a ledger of its own: a
// re-block's reference never lies in another block.
func (s *Segment) Events(fn func(ord int64, e *trace.Event) error) error {
	var e trace.Event
	ord := int64(0)
	for i := range s.Index.Blocks {
		raw, err := s.Block(i)
		if err != nil {
			return err
		}
		var led trace.Ledger
		n := int64(0)
		for rest := raw; len(rest) > 0; n++ {
			var payload []byte
			if payload, rest, err = trace.NextFrame(rest); err != nil {
				return fmt.Errorf("segment: %s: block %d: %w", filepath.Base(s.Path), i, err)
			}
			if err := led.Decode(payload, &e); err != nil {
				return fmt.Errorf("segment: %s: block %d: %w", filepath.Base(s.Path), i, err)
			}
			if err := fn(ord, &e); err != nil {
				return err
			}
			ord++
		}
		if n != s.Index.Blocks[i].Events {
			return fmt.Errorf("segment: %s: block %d holds %d events, index says %d", filepath.Base(s.Path), i, n, s.Index.Blocks[i].Events)
		}
	}
	return nil
}

// EachVerdict decodes only the verdict events, using the index's verdict
// ordinals to skip blocks (and the decode of non-verdict frames) when
// the ordinal list is complete; a truncated list falls back to scanning
// every block. A verdict frame leans on no other frame, so it is decoded
// alone.
func (s *Segment) EachVerdict(fn func(ord int64, e *trace.Event) error) error {
	if s.Index.VerdictsTruncated {
		return s.Events(func(ord int64, e *trace.Event) error {
			if e.Kind == trace.KindVerdict {
				return fn(ord, e)
			}
			return nil
		})
	}
	want := s.Index.VerdictOrdinals
	if len(want) == 0 {
		return nil
	}
	var e trace.Event
	base := int64(0)
	wi := 0
	for i := range s.Index.Blocks {
		b := &s.Index.Blocks[i]
		for wi < len(want) && want[wi] < base {
			wi++
		}
		if wi >= len(want) {
			return nil
		}
		if want[wi] >= base+b.Events {
			base += b.Events
			continue
		}
		raw, err := s.Block(i)
		if err != nil {
			return err
		}
		ord := base
		for rest := raw; len(rest) > 0; ord++ {
			var payload []byte
			if payload, rest, err = trace.NextFrame(rest); err != nil {
				return fmt.Errorf("segment: %s: block %d: %w", filepath.Base(s.Path), i, err)
			}
			if wi < len(want) && ord == want[wi] {
				if err := trace.DecodeFramePayload(payload, &e); err != nil {
					return fmt.Errorf("segment: %s: block %d: %w", filepath.Base(s.Path), i, err)
				}
				if err := fn(ord, &e); err != nil {
					return err
				}
				wi++
			}
		}
		base += b.Events
	}
	return nil
}

// Quarantine renames a segment that failed validation to
// `<path>.quarantined`, taking it out of every future scan while keeping
// the bytes for forensics. It returns the new path (or the old one if
// the rename failed — e.g. the file is already gone).
func Quarantine(path string) string {
	np := path + ".quarantined"
	if err := os.Rename(path, np); err != nil {
		return path
	}
	return np
}

// Ref is a scanned segment: its path, size, and validated index. The
// file itself is closed; use Open for block access.
type Ref struct {
	Path  string
	Size  int64
	Index *Index
}

// Scan reads the index of every sealed (`*.seg`) file in dir, sorted by
// (session, sequence). Files that fail validation are reported through
// warn (if non-nil) and skipped; with quarantine set they are also
// renamed `*.quarantined` so later scans and the retention manager see
// them for what they are. Active and already-quarantined files are
// always skipped: a scan only ever surfaces complete segments.
func Scan(dir string, quarantine bool, warn func(path string, err error)) ([]Ref, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var refs []Ref
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".seg") {
			continue
		}
		path := filepath.Join(dir, name)
		s, err := Open(path)
		if err != nil {
			if warn != nil {
				warn(path, err)
			}
			if quarantine {
				Quarantine(path)
			}
			continue
		}
		refs = append(refs, Ref{Path: path, Size: s.Size, Index: s.Index})
		s.Close()
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Index.Session != refs[j].Index.Session {
			return refs[i].Index.Session < refs[j].Index.Session
		}
		return refs[i].Index.Seq < refs[j].Index.Seq
	})
	return refs, nil
}
