package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"armus/internal/deps"
	"armus/internal/wire"
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
//	per Blocked: status (wire.AppendBlocked)

// snapshotMagic versions the wire format; bump the trailing digit on any
// incompatible change so mixed-version clusters drop (rather than misparse)
// each other's snapshots.
const snapshotMagic = "ARMUSD1"

// maxSnapshotItems bounds every decoded length so a corrupt or hostile
// payload cannot make the checker allocate unbounded memory (mirroring the
// store's own maxBulk guard).
const maxSnapshotItems = 1 << 20

// appendSnapshot serialises one site's blocked statuses into buf, which a
// size estimate grows once when it is new or still small.
func appendSnapshot(buf []byte, siteID int, seq uint64, snap []deps.Blocked) []byte {
	buf = append(slices.Grow(buf, len(snapshotMagic)+16+32*len(snap)), snapshotMagic...)
	buf = binary.AppendUvarint(buf, uint64(siteID))
	buf = binary.AppendUvarint(buf, seq)
	return appendBody(buf, snap)
}

// encodeSnapshot serialises one site's blocked statuses.
func encodeSnapshot(siteID int, seq uint64, snap []deps.Blocked) []byte {
	return appendSnapshot(nil, siteID, seq, snap)
}

// appendBody serialises a counted run of statuses, the body of a
// snapshot and the upserts of a delta.
func appendBody(buf []byte, snap []deps.Blocked) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(snap)))
	for i := range snap {
		buf = wire.AppendBlocked(buf, &snap[i])
	}
	return buf
}

// bodyInto reads what appendBody wrote into buf, which it
// overwrites and reuses, inner slices included (see wire.Emptied).
func bodyInto(c *wire.Cursor, buf []deps.Blocked) []deps.Blocked {
	n := c.Length(maxSnapshotItems)
	buf = wire.Emptied(buf, n)[:n]
	for i := range buf {
		c.BlockedInto(&buf[i], maxSnapshotItems)
	}
	return buf
}

// opened returns a cursor over what follows magic in payload; one that has
// already failed if payload does not open with it.
func opened(payload []byte, magic string) wire.Cursor {
	if len(payload) < len(magic) || string(payload[:len(magic)]) != magic {
		c := wire.NewCursor(nil)
		c.Fail(errors.New("bad magic"))
		return c
	}
	return wire.NewCursor(payload[len(magic):])
}

// decodeSnapshotInto parses a payload produced by encodeSnapshot into buf,
// which it overwrites, reuses (see wire.Emptied) and returns — also on an
// error, when what it holds is unspecified: a caller with a good snapshot
// to lose decodes into a spare. Any malformation is an error: the caller
// drops the snapshot (counting it) so one corrupt entry can never wedge a
// global check.
func decodeSnapshotInto(payload []byte, buf []deps.Blocked) (siteID int, seq uint64, snap []deps.Blocked, err error) {
	c, siteID, seq := snapshotHeader(payload)
	snap = bodyInto(&c, buf)
	if err := c.Done(); err != nil {
		return 0, 0, snap, fmt.Errorf("dist: snapshot: %w", err)
	}
	return siteID, seq, snap, nil
}

// decodeSnapshot is decodeSnapshotInto into fresh memory.
func decodeSnapshot(payload []byte) (siteID int, seq uint64, snap []deps.Blocked, err error) {
	return decodeSnapshotInto(payload, nil)
}

// snapshotHeader checks the magic and reads the header, leaving the cursor
// at the body.
func snapshotHeader(payload []byte) (c wire.Cursor, siteID int, seq uint64) {
	c = opened(payload, snapshotMagic)
	siteID = int(c.Uvarint())
	seq = c.Uvarint()
	return c, siteID, seq
}

// peekSnapshotSeq reads a snapshot header without decoding the body, so an
// unchanged peer (same seq as the cached view) costs no allocation.
func peekSnapshotSeq(payload []byte) (siteID int, seq uint64, err error) {
	c, siteID, seq := snapshotHeader(payload)
	if err := c.Err(); err != nil {
		return 0, 0, fmt.Errorf("dist: snapshot header: %w", err)
	}
	return siteID, seq, nil
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
//	tasks removed              (wire.AppendTasks), strictly ascending
//	uvarint len(upserts)       then per Blocked: status, strictly ascending Task

// deltaMagic versions the delta wire format (see snapshotMagic).
const deltaMagic = "ARMUSI1"

// appendDelta serialises a cumulative delta against the base snapshot
// into buf (grown like appendSnapshot's).
func appendDelta(buf []byte, siteID int, baseSeq, seq uint64, removed []deps.TaskID, upserts []deps.Blocked) []byte {
	buf = append(slices.Grow(buf, len(deltaMagic)+24+8*len(removed)+32*len(upserts)), deltaMagic...)
	buf = binary.AppendUvarint(buf, uint64(siteID))
	buf = binary.AppendUvarint(buf, baseSeq)
	buf = binary.AppendUvarint(buf, seq)
	buf = wire.AppendTasks(buf, removed)
	return appendBody(buf, upserts)
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
	c, siteID, baseSeq, seq := deltaHeader(payload)
	if seq <= baseSeq {
		c.Fail(fmt.Errorf("seq %d not beyond base %d", seq, baseSeq))
	}
	removed = c.TasksInto(removed, maxSnapshotItems)
	for i := 1; i < len(removed); i++ {
		if removed[i] <= removed[i-1] {
			c.Fail(errors.New("removed tasks not ascending"))
			break
		}
	}
	upserts = bodyInto(&c, upserts)
	for i := 1; i < len(upserts); i++ {
		if upserts[i].Task <= upserts[i-1].Task {
			c.Fail(errors.New("upserts not ascending"))
			break
		}
	}
	if err := c.Done(); err != nil {
		return 0, 0, 0, removed, upserts, fmt.Errorf("dist: delta: %w", err)
	}
	return siteID, baseSeq, seq, removed, upserts, nil
}

// decodeDelta is decodeDeltaInto into fresh memory.
func decodeDelta(payload []byte) (siteID int, baseSeq, seq uint64, removed []deps.TaskID, upserts []deps.Blocked, err error) {
	return decodeDeltaInto(payload, nil, nil)
}

// deltaHeader is snapshotHeader for a delta.
func deltaHeader(payload []byte) (c wire.Cursor, siteID int, baseSeq, seq uint64) {
	c = opened(payload, deltaMagic)
	siteID = int(c.Uvarint())
	baseSeq = c.Uvarint()
	seq = c.Uvarint()
	return c, siteID, baseSeq, seq
}

// peekDeltaSeqs reads a delta header without decoding the body.
func peekDeltaSeqs(payload []byte) (siteID int, baseSeq, seq uint64, err error) {
	c, siteID, baseSeq, seq := deltaHeader(payload)
	if err := c.Err(); err != nil {
		return 0, 0, 0, fmt.Errorf("dist: delta header: %w", err)
	}
	return siteID, baseSeq, seq, nil
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
