package dist

import (
	"encoding/binary"
	"fmt"
	"slices"

	"armus/internal/deps"
)

// The snapshot wire format is a hand-rolled varint encoding rather than
// encoding/gob: payloads are written every period by every site, so they
// should be compact, allocation-light, and — because a snapshot may be read
// back by a site running a different build, or after the store returned a
// torn/corrupt value — every length must be validated before it is
// allocated. Layout:
//
// The siteID and seq header fields are diagnostic metadata: seq counts the
// publisher's rounds so an operator inspecting the store can tell a live
// snapshot from a frozen one. The checker itself never ages snapshots out
// by seq — a dead site's tasks stay genuinely blocked, so its last
// snapshot stays valid input (see the package comment).
//
//	magic "ARMUSD1"
//	uvarint siteID
//	uvarint seq
//	uvarint len(snap)
//	per Blocked:
//	    varint  Task
//	    uvarint len(WaitsFor)  then per Resource: varint Phaser, varint Phase
//	    uvarint len(Regs)      then per Reg:      varint Phaser, varint Phase
//
// Signed fields use zig-zag varints so distributed ID bases near the top of
// the int64 range still encode compactly enough and negatives round-trip.

// snapshotMagic versions the wire format; bump the trailing digit on any
// incompatible change so mixed-version clusters drop (rather than misparse)
// each other's snapshots.
const snapshotMagic = "ARMUSD1"

// maxSnapshotItems bounds every decoded length so a corrupt or hostile
// payload cannot make the checker allocate unbounded memory (mirroring the
// store's own maxBulk guard).
const maxSnapshotItems = 1 << 20

// appendBlocked serialises one blocked status (shared by the snapshot and
// delta encoders).
func appendBlocked(buf []byte, b *deps.Blocked) []byte {
	buf = binary.AppendVarint(buf, int64(b.Task))
	buf = binary.AppendUvarint(buf, uint64(len(b.WaitsFor)))
	for _, r := range b.WaitsFor {
		buf = binary.AppendVarint(buf, int64(r.Phaser))
		buf = binary.AppendVarint(buf, r.Phase)
	}
	buf = binary.AppendUvarint(buf, uint64(len(b.Regs)))
	for _, reg := range b.Regs {
		buf = binary.AppendVarint(buf, int64(reg.Phaser))
		buf = binary.AppendVarint(buf, reg.Phase)
	}
	return buf
}

// appendSnapshot serialises one site's blocked statuses into buf, which a
// size estimate grows once when it is new or still small.
func appendSnapshot(buf []byte, siteID int, seq uint64, snap []deps.Blocked) []byte {
	buf = append(slices.Grow(buf, len(snapshotMagic)+16+32*len(snap)), snapshotMagic...)
	buf = binary.AppendUvarint(buf, uint64(siteID))
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(snap)))
	for i := range snap {
		buf = appendBlocked(buf, &snap[i])
	}
	return buf
}

// encodeSnapshot serialises one site's blocked statuses.
func encodeSnapshot(siteID int, seq uint64, snap []deps.Blocked) []byte {
	return appendSnapshot(nil, siteID, seq, snap)
}

// snapshotDecoder is a cursor over an encoded snapshot.
type snapshotDecoder struct {
	buf []byte
}

func (d *snapshotDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("dist: truncated snapshot")
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *snapshotDecoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("dist: truncated snapshot")
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *snapshotDecoder) length() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	// Every encoded item costs at least one byte, so a count larger than
	// the remaining payload is corrupt — reject it BEFORE allocating, or a
	// 15-byte payload claiming 2^20 items would cost tens of MB per check.
	if v > maxSnapshotItems || v > uint64(len(d.buf)) {
		return 0, fmt.Errorf("dist: snapshot length %d exceeds limit", v)
	}
	return int(v), nil
}

// emptied returns buf with length zero and room for n items. Whatever buf
// held stays behind its length, so a decoder refilling it finds the inner
// slices of its previous occupants and reuses them — the way
// deps.State.SnapshotInto treats its buffer. A fresh decode (nil buffers)
// allocates exactly what it needs, once.
func emptied[T any](buf []T, n int) []T {
	switch {
	case n <= cap(buf):
	case cap(buf) == 0:
		return make([]T, 0, n)
	default:
		buf = slices.Grow(buf[:cap(buf)], n-cap(buf))
	}
	return buf[:0]
}

// blockedInto decodes one blocked status (shared by the snapshot and delta
// decoders) into b, overwriting it and reusing its slices.
func (d *snapshotDecoder) blockedInto(b *deps.Blocked) error {
	t, err := d.varint()
	if err != nil {
		return err
	}
	b.Task = deps.TaskID(t)
	nw, err := d.length()
	if err != nil {
		return err
	}
	b.WaitsFor = emptied(b.WaitsFor, nw)
	for j := 0; j < nw; j++ {
		q, err := d.varint()
		if err != nil {
			return err
		}
		ph, err := d.varint()
		if err != nil {
			return err
		}
		b.WaitsFor = append(b.WaitsFor, deps.Resource{Phaser: deps.PhaserID(q), Phase: ph})
	}
	nr, err := d.length()
	if err != nil {
		return err
	}
	b.Regs = emptied(b.Regs, nr)
	for j := 0; j < nr; j++ {
		q, err := d.varint()
		if err != nil {
			return err
		}
		ph, err := d.varint()
		if err != nil {
			return err
		}
		b.Regs = append(b.Regs, deps.Reg{Phaser: deps.PhaserID(q), Phase: ph})
	}
	return nil
}

// decodeSnapshotInto parses a payload produced by encodeSnapshot into buf,
// which it overwrites, reuses (see emptied) and returns — also on an
// error, when what it holds is unspecified: a caller with a good snapshot
// to lose decodes into a spare. Any malformation is an error: the caller
// drops the snapshot (counting it) so one corrupt entry can never wedge a
// global check.
func decodeSnapshotInto(payload []byte, buf []deps.Blocked) (siteID int, seq uint64, snap []deps.Blocked, err error) {
	d, siteID, seq, err := snapshotHeader(payload)
	if err != nil {
		return 0, 0, buf, err
	}
	n, err := d.length()
	if err != nil {
		return 0, 0, buf, err
	}
	snap = emptied(buf, n)
	for i := 0; i < n; i++ {
		snap = snap[:i+1]
		if err := d.blockedInto(&snap[i]); err != nil {
			return 0, 0, snap, err
		}
	}
	if len(d.buf) != 0 {
		return 0, 0, snap, fmt.Errorf("dist: %d trailing bytes after snapshot", len(d.buf))
	}
	return siteID, seq, snap, nil
}

// decodeSnapshot is decodeSnapshotInto into fresh memory.
func decodeSnapshot(payload []byte) (siteID int, seq uint64, snap []deps.Blocked, err error) {
	return decodeSnapshotInto(payload, nil)
}

// snapshotHeader checks the magic and reads the header, leaving the decoder
// at the body.
func snapshotHeader(payload []byte) (d snapshotDecoder, siteID int, seq uint64, err error) {
	if len(payload) < len(snapshotMagic) || string(payload[:len(snapshotMagic)]) != snapshotMagic {
		return d, 0, 0, fmt.Errorf("dist: bad snapshot magic")
	}
	d.buf = payload[len(snapshotMagic):]
	id, err := d.uvarint()
	if err != nil {
		return d, 0, 0, err
	}
	if seq, err = d.uvarint(); err != nil {
		return d, 0, 0, err
	}
	return d, int(id), seq, nil
}

// peekSnapshotSeq reads a snapshot header without decoding the body, so an
// unchanged peer (same seq as the cached view) costs no allocation.
func peekSnapshotSeq(payload []byte) (siteID int, seq uint64, err error) {
	_, siteID, seq, err = snapshotHeader(payload)
	return siteID, seq, err
}

// --- delta format -----------------------------------------------------
//
// A delta is the CUMULATIVE difference between a site's published base
// snapshot (seq baseSeq) and its current view (seq): tasks removed from
// the base, plus upserted blocked statuses (new or changed). Each site
// stores exactly one base field and one delta field in its hash; the
// delta is overwritten in place every round, so there are no chains to
// replay and any single lost write is healed by the next overwrite — the
// same self-contained-overwrite fault-tolerance story as full snapshots.
//
//	magic "ARMUSI1"
//	uvarint siteID
//	uvarint baseSeq            (base snapshot this delta applies to)
//	uvarint seq                (resulting view; must exceed baseSeq)
//	uvarint len(removed)       then per task: varint TaskID, strictly ascending
//	uvarint len(upserts)       then per Blocked (strictly ascending Task)

// deltaMagic versions the delta wire format (see snapshotMagic).
const deltaMagic = "ARMUSI1"

// appendDelta serialises a cumulative delta against the base snapshot
// into buf (grown like appendSnapshot's).
func appendDelta(buf []byte, siteID int, baseSeq, seq uint64, removed []deps.TaskID, upserts []deps.Blocked) []byte {
	buf = append(slices.Grow(buf, len(deltaMagic)+24+8*len(removed)+32*len(upserts)), deltaMagic...)
	buf = binary.AppendUvarint(buf, uint64(siteID))
	buf = binary.AppendUvarint(buf, baseSeq)
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(removed)))
	for _, t := range removed {
		buf = binary.AppendVarint(buf, int64(t))
	}
	buf = binary.AppendUvarint(buf, uint64(len(upserts)))
	for i := range upserts {
		buf = appendBlocked(buf, &upserts[i])
	}
	return buf
}

// encodeDelta serialises a cumulative delta into a fresh buffer.
func encodeDelta(siteID int, baseSeq, seq uint64, removed []deps.TaskID, upserts []deps.Blocked) []byte {
	return appendDelta(nil, siteID, baseSeq, seq, removed, upserts)
}

// decodeDeltaInto parses a payload produced by encodeDelta into the
// caller's removed and upserts buffers (overwritten, reused and returned
// like decodeSnapshotInto's), enforcing the ordering invariants (strictly
// ascending removed tasks and upserts, seq beyond baseSeq) so applyDelta
// stays a simple sorted merge. Any malformation is an error: the caller
// falls back to the base snapshot.
func decodeDeltaInto(payload []byte, removed []deps.TaskID, upserts []deps.Blocked) (siteID int, baseSeq, seq uint64, _ []deps.TaskID, _ []deps.Blocked, err error) {
	fail := func(err error) (int, uint64, uint64, []deps.TaskID, []deps.Blocked, error) {
		return 0, 0, 0, removed, upserts, err
	}
	d, id, baseSeq, seq, err := deltaHeader(payload)
	if err != nil {
		return fail(err)
	}
	if seq <= baseSeq {
		return fail(fmt.Errorf("dist: delta seq %d not beyond base %d", seq, baseSeq))
	}
	nr, err := d.length()
	if err != nil {
		return fail(err)
	}
	removed = emptied(removed, nr)
	for i := 0; i < nr; i++ {
		t, err := d.varint()
		if err != nil {
			return fail(err)
		}
		if i > 0 && deps.TaskID(t) <= removed[i-1] {
			return fail(fmt.Errorf("dist: delta removed tasks not ascending"))
		}
		removed = append(removed, deps.TaskID(t))
	}
	nu, err := d.length()
	if err != nil {
		return fail(err)
	}
	upserts = emptied(upserts, nu)
	for i := 0; i < nu; i++ {
		upserts = upserts[:i+1]
		if err := d.blockedInto(&upserts[i]); err != nil {
			return fail(err)
		}
		if i > 0 && upserts[i].Task <= upserts[i-1].Task {
			return fail(fmt.Errorf("dist: delta upserts not ascending"))
		}
	}
	if len(d.buf) != 0 {
		return fail(fmt.Errorf("dist: %d trailing bytes after delta", len(d.buf)))
	}
	return id, baseSeq, seq, removed, upserts, nil
}

// decodeDelta is decodeDeltaInto into fresh memory.
func decodeDelta(payload []byte) (siteID int, baseSeq, seq uint64, removed []deps.TaskID, upserts []deps.Blocked, err error) {
	return decodeDeltaInto(payload, nil, nil)
}

// deltaHeader is snapshotHeader for a delta.
func deltaHeader(payload []byte) (d snapshotDecoder, siteID int, baseSeq, seq uint64, err error) {
	if len(payload) < len(deltaMagic) || string(payload[:len(deltaMagic)]) != deltaMagic {
		return d, 0, 0, 0, fmt.Errorf("dist: bad delta magic")
	}
	d.buf = payload[len(deltaMagic):]
	id, err := d.uvarint()
	if err != nil {
		return d, 0, 0, 0, err
	}
	if baseSeq, err = d.uvarint(); err != nil {
		return d, 0, 0, 0, err
	}
	if seq, err = d.uvarint(); err != nil {
		return d, 0, 0, 0, err
	}
	return d, int(id), baseSeq, seq, nil
}

// peekDeltaSeqs reads a delta header without decoding the body.
func peekDeltaSeqs(payload []byte) (siteID int, baseSeq, seq uint64, err error) {
	_, siteID, baseSeq, seq, err = deltaHeader(payload)
	return siteID, baseSeq, seq, err
}

// blockedEqual reports whether two blocked statuses are identical.
func blockedEqual(a, b *deps.Blocked) bool {
	if a.Task != b.Task || len(a.WaitsFor) != len(b.WaitsFor) || len(a.Regs) != len(b.Regs) {
		return false
	}
	for i := range a.WaitsFor {
		if a.WaitsFor[i] != b.WaitsFor[i] {
			return false
		}
	}
	for i := range a.Regs {
		if a.Regs[i] != b.Regs[i] {
			return false
		}
	}
	return true
}

// diffSnapshots computes the cumulative delta turning base into cur. Both
// inputs must be sorted ascending by Task (deps.State.SnapshotInto and the
// decoder both guarantee it). Results are appended into the caller's
// reusable removed/upserts slices; upsert entries alias cur.
func diffSnapshots(base, cur []deps.Blocked, removed []deps.TaskID, upserts []deps.Blocked) ([]deps.TaskID, []deps.Blocked) {
	i, j := 0, 0
	for i < len(base) || j < len(cur) {
		switch {
		case i >= len(base) || (j < len(cur) && cur[j].Task < base[i].Task):
			upserts = append(upserts, cur[j])
			j++
		case j >= len(cur) || base[i].Task < cur[j].Task:
			removed = append(removed, base[i].Task)
			i++
		default: // same task
			if !blockedEqual(&base[i], &cur[j]) {
				upserts = append(upserts, cur[j])
			}
			i++
			j++
		}
	}
	return removed, upserts
}

// applyDelta merges a decoded delta into a base view, appending the result
// (sorted by Task) into dst. Entries alias base and upserts; callers must
// treat the output as read-only. Removed tasks absent from the base are
// ignored — the delta is cumulative, so re-applying after a base refresh
// is harmless.
func applyDelta(dst, base []deps.Blocked, removed []deps.TaskID, upserts []deps.Blocked) []deps.Blocked {
	i, j, k := 0, 0, 0 // base, removed, upserts cursors
	for i < len(base) || k < len(upserts) {
		if k < len(upserts) && (i >= len(base) || upserts[k].Task <= base[i].Task) {
			if i < len(base) && base[i].Task == upserts[k].Task {
				i++
			}
			dst = append(dst, upserts[k])
			k++
			continue
		}
		t := base[i].Task
		for j < len(removed) && removed[j] < t {
			j++
		}
		if j < len(removed) && removed[j] == t {
			i++
			continue
		}
		dst = append(dst, base[i])
		i++
	}
	return dst
}
