package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"testing"

	"armus/internal/deps"
)

// goldenStatuses pairs statuses — negative, zero and extreme IDs, empty
// lists — with their encoding by the commit before this package existed
// (26b55cd, PR 21: internal/dist's status encoder; internal/trace's wrote
// the same bytes): the hex strings were printed by that commit, not by this
// one.
var goldenStatuses = []struct {
	b   deps.Blocked
	hex string
}{
	{deps.Blocked{Task: -3,
		WaitsFor: []deps.Resource{{Phaser: 0, Phase: 0}, {Phaser: math.MaxInt64 - 1, Phase: -1}},
		Regs:     []deps.Reg{{Phaser: math.MaxInt64, Phase: math.MaxInt64 - 2}}},
		"05020000fcffffffffffffffff010101feffffffffffffffff01faffffffffffffffff01"},
	{deps.Blocked{Task: 0}, "000000"},
	{deps.Blocked{Task: math.MaxInt64,
		Regs: []deps.Reg{{Phaser: math.MinInt64, Phase: math.MinInt64}, {Phaser: 1, Phase: 64}}},
		"feffffffffffffffff010002ffffffffffffffffff01ffffffffffffffffff01028001"},
	{deps.Blocked{Task: math.MinInt64, WaitsFor: []deps.Resource{{Phaser: -1, Phase: 63}}},
		"ffffffffffffffffff0101017e00"},
}

func TestGoldenStatus(t *testing.T) {
	for _, g := range goldenStatuses {
		if got := hex.EncodeToString(AppendBlocked(nil, &g.b)); got != g.hex {
			t.Errorf("%+v encodes to %s, want %s", g.b, got, g.hex)
		}
		raw, _ := hex.DecodeString(g.hex)
		c := NewCursor(raw)
		var b deps.Blocked
		c.BlockedInto(&b, len(raw))
		if err := c.Done(); err != nil || !reflect.DeepEqual(b, g.b) {
			t.Errorf("%s decodes to %+v, %v; want %+v", g.hex, b, err, g.b)
		}
	}
}

// TestFirstFailureSticks: after any failed read the cursor is empty, every
// later read is zero and the first error is the one reported.
func TestFirstFailureSticks(t *testing.T) {
	c := NewCursor([]byte{0x05, 0x80}) // 5, then a varint cut short
	if v := c.Uvarint(); v != 5 || c.Err() != nil {
		t.Fatalf("Uvarint = %d, %v", v, c.Err())
	}
	if v := c.Varint(); v != 0 || !errors.Is(c.Err(), ErrTruncated) {
		t.Fatalf("cut varint = %d, %v", v, c.Err())
	}
	c.Fail(errors.New("later"))
	var b deps.Blocked
	c.BlockedInto(&b, 10)
	if c.Uvarint() != 0 || c.Varint() != 0 || c.Byte() != 0 || c.Bool() || c.Uint8() != 0 ||
		c.Length(10) != 0 || len(c.Bytes(10)) != 0 || len(c.TasksInto(nil, 10)) != 0 ||
		len(b.WaitsFor)+len(b.Regs) != 0 {
		t.Fatal("a failed cursor yielded something")
	}
	if err := c.Done(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Done = %v, want the first failure", err)
	}
}

func TestRangeChecks(t *testing.T) {
	for name, tc := range map[string]struct {
		in   []byte
		read func(*Cursor)
		ok   bool
	}{
		"uint8 255":        {[]byte{0xff, 0x01}, func(c *Cursor) { c.Uint8() }, true},
		"uint8 256":        {[]byte{0x80, 0x02}, func(c *Cursor) { c.Uint8() }, false},
		"uint8 long 5":     {[]byte{0x85, 0x00}, func(c *Cursor) { c.Uint8() }, true},
		"bool 1":           {[]byte{0x01}, func(c *Cursor) { c.Bool() }, true},
		"bool 2":           {[]byte{0x02}, func(c *Cursor) { c.Bool() }, false},
		"bool none":        {nil, func(c *Cursor) { c.Bool() }, false},
		"byte none":        {nil, func(c *Cursor) { c.Byte() }, false},
		"overflow":         {bytes.Repeat([]byte{0xff}, 11), func(c *Cursor) { c.Uvarint() }, false},
		"length fits":      {[]byte{0x02, 'a', 'b'}, func(c *Cursor) { c.Bytes(2) }, true},
		"length > limit":   {[]byte{0x02, 'a', 'b'}, func(c *Cursor) { c.Bytes(1) }, false},
		"length > left":    {[]byte{0x03, 'a', 'b'}, func(c *Cursor) { c.Bytes(9) }, false},
		"count > left":     {[]byte{0x7f, 0x00}, func(c *Cursor) { c.TasksInto(nil, 1<<20) }, false},
		"trailing":         {[]byte{0x00, 0x00}, func(c *Cursor) { c.Byte() }, false},
		"resources cut":    {[]byte{0x02, 0x02, 0x04, 0x06}, func(c *Cursor) { c.ResourcesInto(nil, 9) }, false},
		"resources":        {[]byte{0x02, 0x02, 0x04, 0x06, 0x08}, func(c *Cursor) { c.ResourcesInto(nil, 9) }, true},
		"status regs over": {[]byte{0x02, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00}, func(c *Cursor) { c.BlockedInto(new(deps.Blocked), 1) }, false},
	} {
		c := NewCursor(tc.in)
		tc.read(&c)
		if err := c.Done(); (err == nil) != tc.ok {
			t.Errorf("%s: Done = %v, want ok=%v", name, err, tc.ok)
		}
	}
}

// TestEmptiedKeepsOccupants: a refilled buffer finds the inner slices of
// what it held, a fresh one is sized once, a small one grows without
// losing them.
func TestEmptiedKeepsOccupants(t *testing.T) {
	inner := make([]deps.Reg, 0, 8)
	buf := []deps.Blocked{{Regs: inner}, {Regs: inner}}
	for _, n := range []int{0, 1, 2, 5} {
		got := Emptied(buf, n)
		if len(got) != 0 || cap(got) < n {
			t.Fatalf("Emptied(_, %d): len %d cap %d", n, len(got), cap(got))
		}
		if got = got[:2]; cap(got[0].Regs) != 8 || cap(got[1].Regs) != 8 {
			t.Fatalf("Emptied(_, %d) lost its occupants' storage", n)
		}
	}
	if got := Emptied([]deps.TaskID(nil), 3); len(got) != 0 || cap(got) != 3 {
		t.Fatalf("fresh: len %d cap %d, want 0 and exactly 3", len(got), cap(got))
	}
	if got := Emptied([]deps.TaskID(nil), 0); got != nil {
		t.Fatal("nothing to hold, yet something was allocated")
	}
}

// TestWarmDecodeAllocatesNothing: a status, a task list and a resource list
// decoded into storage that has held as much before.
func TestWarmDecodeAllocatesNothing(t *testing.T) {
	raw := AppendResources(AppendTasks(AppendBlocked(nil, &goldenStatuses[0].b), []deps.TaskID{1, 2, 3}), goldenStatuses[0].b.WaitsFor)
	var (
		b  deps.Blocked
		ts []deps.TaskID
		rs []deps.Resource
	)
	decode := func() {
		c := NewCursor(raw)
		c.BlockedInto(&b, len(raw))
		ts = c.TasksInto(ts, len(raw))
		rs = c.ResourcesInto(rs, len(raw))
		if err := c.Done(); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if n := testing.AllocsPerRun(100, decode); n != 0 {
		t.Fatalf("a warm decode allocates %.1f times", n)
	}
}

// FuzzWire drives every read of the cursor over arbitrary bytes: the first
// byte picks the limit the lists are read under, the rest is the input. On
// every input:
//
//  1. nothing panics;
//  2. once a read has failed, every later read is zero;
//  3. no list is longer than the input — the allocation bound: a count is
//     admitted only if the bytes left could hold it;
//  4. what was accepted, re-encoded with the Append functions, decodes to
//     equal values (byte equality is not required: varints have long
//     spellings, which the formats accept on input).
func FuzzWire(f *testing.F) {
	for _, g := range goldenStatuses {
		raw, _ := hex.DecodeString(g.hex)
		f.Add(append([]byte{0xff}, raw...))
		f.Add(append([]byte{0x01}, raw...))
	}
	whole := AppendBlocked([]byte{0xff}, &goldenStatuses[0].b)
	whole = AppendTasks(whole, []deps.TaskID{-1, 0, 1 << 40})
	whole = AppendResources(whole, goldenStatuses[0].b.WaitsFor)
	whole = append(whole, 3, 'a', 'b', 'c', 1, 0xc8, 0x01)
	f.Add(whole)
	f.Add(whole[:len(whole)-4])
	f.Add([]byte{0xff, 0x00, 0xff, 0xff, 0x3f}) // a count far past the input
	// Empty everything, a true flag, then the kind alias 85 02 (261).
	f.Add([]byte{0xff, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x85, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		limit, in := int(data[0])<<4, data[1:]
		c := NewCursor(in)
		failed := false
		step := func(zero bool) {
			t.Helper()
			if failed && !zero {
				t.Fatalf("a read after the failure %v yielded something", c.Err())
			}
			failed = c.Err() != nil
		}
		var b deps.Blocked
		c.BlockedInto(&b, limit)
		step(true)
		ts := c.TasksInto(nil, limit)
		step(len(ts) == 0)
		rs := c.ResourcesInto(nil, limit)
		step(len(rs) == 0)
		bs := c.Bytes(limit)
		step(len(bs) == 0)
		flag := c.Bool()
		step(!flag)
		u8 := c.Uint8()
		step(u8 == 0)
		if n := len(b.WaitsFor) + len(b.Regs) + len(ts) + len(rs) + len(bs); n > len(in) {
			t.Fatalf("%d items decoded from %d bytes", n, len(in))
		}
		for _, n := range []int{len(b.WaitsFor), len(b.Regs), len(ts), len(rs), len(bs)} {
			if n > limit {
				t.Fatalf("a list of %d under a limit of %d", n, limit)
			}
		}
		if c.Err() != nil {
			return
		}
		re := AppendResources(AppendTasks(AppendBlocked(nil, &b), ts), rs)
		re = append(re, byte(len(bs)&0x7f|0x80), byte(len(bs)>>7)) // a two-byte count: limit < 2^14
		re = append(re, bs...)
		re = append(re, 0, u8&0x7f|0x80, u8>>7)
		if flag {
			re[len(re)-3] = 1
		}
		c2 := NewCursor(re)
		var b2 deps.Blocked
		c2.BlockedInto(&b2, limit)
		ts2, rs2, bs2 := c2.TasksInto(nil, limit), c2.ResourcesInto(nil, limit), c2.Bytes(limit)
		flag2, u82 := c2.Bool(), c2.Uint8()
		if err := c2.Done(); err != nil {
			t.Fatalf("the re-encoding is rejected: %v", err)
		}
		if !reflect.DeepEqual(b2, b) || !reflect.DeepEqual(ts2, ts) || !reflect.DeepEqual(rs2, rs) ||
			!bytes.Equal(bs2, bs) || flag2 != flag || u82 != u8 {
			t.Fatalf("the re-encoding decodes to other values")
		}
	})
}
