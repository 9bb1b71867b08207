// Package wire holds the primitives every Armus byte format is made of: one
// decode cursor and the one layout of the two values the formats share — the
// blocked status of Def. 4.1 and the two lists of a deadlock cycle. The trace
// stream (internal/trace), the server's responses (internal/server/proto),
// the §5.2 snapshots and deltas (internal/dist) and the segment footer index
// (internal/segment) are all sequences of these reads; each of them owns its
// magic, framing, limits and record layout, and none of them reads a varint
// or lays out a status on its own.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"armus/internal/deps"
)

// ErrTruncated reports input that ended inside a value.
var ErrTruncated = errors.New("truncated")

var errOverflow = errors.New("varint overflows 64 bits")

// Cursor reads values off the front of a byte slice. Its first failure
// sticks: the cursor empties itself and every later read yields zero, so a
// record decoder is straight-line reads followed by one Done — nothing is
// checked per field, and a count read after a failure is 0, so no loop runs
// on garbage. The input is untrusted: Length is the only source of a count,
// and it admits none that the bytes left could not hold.
type Cursor struct {
	buf []byte
	err error
}

// NewCursor returns a cursor over b, which it reads in place.
func NewCursor(b []byte) Cursor { return Cursor{buf: b} }

// Fail records err unless a failure is already recorded, and empties the
// cursor. Decoders call it for the range checks of their own format.
func (c *Cursor) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.buf = nil
}

// Err returns the first failure, if any.
func (c *Cursor) Err() error { return c.err }

// Done ends a record: the first failure, else an error if bytes are left
// over, else nil.
func (c *Cursor) Done() error {
	if len(c.buf) != 0 { // so nothing has failed: a failure empties the cursor
		c.Fail(fmt.Errorf("%d trailing bytes", len(c.buf)))
	}
	return c.err
}

// Uvarint and Varint read a one-byte value — task, phaser, phase, kind and
// count nearly always are — in place, and leave the rest to encoding/binary.
// Non-minimal encodings are accepted, as encoding/binary accepts them.
func (c *Cursor) Uvarint() uint64 {
	if len(c.buf) > 0 && c.buf[0] < 0x80 {
		v := uint64(c.buf[0])
		c.buf = c.buf[1:]
		return v
	}
	v, n := binary.Uvarint(c.buf)
	return c.advance(v, n)
}

// Varint reads a zig-zag varint.
func (c *Cursor) Varint() int64 {
	if len(c.buf) > 0 && c.buf[0] < 0x80 {
		u := c.buf[0]
		c.buf = c.buf[1:]
		return Zigzag(u)
	}
	v, n := binary.Varint(c.buf)
	return int64(c.advance(uint64(v), n))
}

// OneByte reports whether b is a run of one-byte varints, every byte below
// 0x80: a record a decoder may read in one pass, an unsigned field as its
// byte and a signed one as Zigzag of it, which is what a Cursor reads.
func OneByte(b []byte) bool {
	var or byte
	for _, x := range b {
		or |= x
	}
	return or < 0x80
}

// Zigzag returns the value of the one-byte zig-zag varint u (u < 0x80).
func Zigzag(u byte) int64 { return int64(u>>1) ^ -int64(u&1) }

// advance consumes the n bytes encoding/binary decoded v from, or fails.
func (c *Cursor) advance(v uint64, n int) uint64 {
	switch {
	case n > 0:
		c.buf = c.buf[n:]
		return v
	case n == 0:
		c.Fail(ErrTruncated)
	default:
		c.Fail(errOverflow)
	}
	return 0
}

// Byte reads one raw byte.
func (c *Cursor) Byte() byte {
	if len(c.buf) == 0 {
		c.Fail(ErrTruncated)
		return 0
	}
	b := c.buf[0]
	c.buf = c.buf[1:]
	return b
}

// Bool reads one byte that must be 0 or 1.
func (c *Cursor) Bool() bool {
	b := c.Byte()
	if b > 1 {
		c.Fail(fmt.Errorf("bad bool %d", b))
		return false
	}
	return b == 1
}

// Uint8 reads a uvarint that must fit a byte: modes and kinds. The value is
// range-checked before it is narrowed, so kind 261 is not kind 5. It opens
// every event and every response, so the one-byte spelling is read here, not
// a call further down.
func (c *Cursor) Uint8() uint8 {
	if len(c.buf) > 0 && c.buf[0] < 0x80 {
		v := c.buf[0]
		c.buf = c.buf[1:]
		return v
	}
	v := c.Uvarint()
	if v > 0xff {
		c.Fail(fmt.Errorf("value %d does not fit a byte", v))
		return 0
	}
	return uint8(v)
}

// Length reads an item or byte count. Every item costs at least one byte, so
// a count above the bytes left is corrupt, as is one above the format's
// limit — rejected here, BEFORE the caller allocates or indexes anything:
// otherwise a 15-byte payload claiming 2^20 items would cost tens of MB.
func (c *Cursor) Length(limit int) int {
	v := c.Uvarint()
	if v > uint64(limit) || v > uint64(len(c.buf)) {
		c.Fail(fmt.Errorf("length %d exceeds limit", v))
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte string of at most limit bytes as a view
// into the input.
func (c *Cursor) Bytes(limit int) []byte {
	n := c.Length(limit)
	b := c.buf[:n:n]
	c.buf = c.buf[n:]
	return b
}

// Emptied returns buf with length zero and room for n items. Whatever buf
// held stays behind its length, so a decoder refilling it finds the inner
// slices of its previous occupants and reuses them — the way
// deps.State.SnapshotInto treats its buffer. A warm buffer is only
// truncated; a fresh decode (nil buffers) allocates exactly what it needs,
// once.
func Emptied[T any](buf []T, n int) []T {
	switch {
	case n <= cap(buf):
	case cap(buf) == 0:
		return make([]T, 0, n)
	default:
		buf = slices.Grow(buf[:cap(buf)], n-cap(buf))
	}
	return buf[:0]
}

// AppendBlocked appends the one layout of a blocked status:
//
//	varint task
//	resources waitsFor   (the layout of AppendResources)
//	resources regs
//
// Signed fields are zig-zag varints, so distributed IDs (site offsets near
// the top of the int64 range) and negatives round-trip.
//
// Both lists are written, and in BlockedInto read, by loops of their own
// rather than through AppendResources / ResourcesInto or a generic function
// over the two names of a (phaser, phase) pair: a status is a few pairs, so a
// call per list measured as a fifth more time per status encoded, and a
// cursor handed to a generic function escapes to the heap, where the ingest
// path decodes without allocating.
func AppendBlocked(buf []byte, b *deps.Blocked) []byte {
	buf = binary.AppendVarint(buf, int64(b.Task))
	buf = binary.AppendUvarint(buf, uint64(len(b.WaitsFor)))
	for _, r := range b.WaitsFor {
		buf = binary.AppendVarint(buf, int64(r.Phaser))
		buf = binary.AppendVarint(buf, r.Phase)
	}
	buf = binary.AppendUvarint(buf, uint64(len(b.Regs)))
	for _, r := range b.Regs {
		buf = binary.AppendVarint(buf, int64(r.Phaser))
		buf = binary.AppendVarint(buf, r.Phase)
	}
	return buf
}

// BlockedInto reads a status into b, overwriting it and reusing its slices
// (see Emptied). limit bounds each list.
func (c *Cursor) BlockedInto(b *deps.Blocked, limit int) {
	b.Task = deps.TaskID(c.Varint())
	n := c.Length(limit)
	b.WaitsFor = Emptied(b.WaitsFor, n)[:n]
	for i := range b.WaitsFor {
		q := c.Varint()
		b.WaitsFor[i] = deps.Resource{Phaser: deps.PhaserID(q), Phase: c.Varint()}
	}
	n = c.Length(limit)
	b.Regs = Emptied(b.Regs, n)[:n]
	for i := range b.Regs {
		q := c.Varint()
		b.Regs[i] = deps.Reg{Phaser: deps.PhaserID(q), Phase: c.Varint()}
	}
}

// AppendTasks appends a task list — a cycle's tasks, a delta's removals:
//
//	uvarint len, then per task: varint task
func AppendTasks(buf []byte, tasks []deps.TaskID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(tasks)))
	for _, t := range tasks {
		buf = binary.AppendVarint(buf, int64(t))
	}
	return buf
}

// TasksInto reads a task list of at most limit tasks into buf's storage.
func (c *Cursor) TasksInto(buf []deps.TaskID, limit int) []deps.TaskID {
	n := c.Length(limit)
	buf = Emptied(buf, n)[:n]
	for i := range buf {
		buf[i] = deps.TaskID(c.Varint())
	}
	return buf
}

// AppendResources appends a resource list — a cycle's resources, a status's
// waits-for set:
//
//	uvarint len, then per resource: varint phaser, varint phase
func AppendResources(buf []byte, rs []deps.Resource) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rs)))
	for _, r := range rs {
		buf = binary.AppendVarint(buf, int64(r.Phaser))
		buf = binary.AppendVarint(buf, r.Phase)
	}
	return buf
}

// ResourcesInto reads a resource list of at most limit resources into buf's
// storage.
func (c *Cursor) ResourcesInto(buf []deps.Resource, limit int) []deps.Resource {
	n := c.Length(limit)
	buf = Emptied(buf, n)[:n]
	for i := range buf {
		q := c.Varint()
		buf[i] = deps.Resource{Phaser: deps.PhaserID(q), Phase: c.Varint()}
	}
	return buf
}
