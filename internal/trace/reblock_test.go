package trace

import (
	"bytes"
	"encoding/hex"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"armus/internal/deps"
)

// meshStream is laps of a Mesh-shaped stream (benchmark/gen.Mesh(8, 8)): 8
// tasks, 64 two-member phasers, every task registered with 16 of them. Per
// phaser and lap the first member arrives and blocks, and the second arrives
// and releases it, so a task's consecutive statuses repeat its 16
// registrations with one or two phases advanced.
func meshStream(laps int) []Event {
	const tasks, own = 8, 8
	type phaser struct{ a, b int }
	var phasers []phaser
	regs := make([][]deps.Reg, tasks)
	for k := 0; k < own; k++ {
		for a := 0; a < tasks; a++ {
			b := (a + 1 + k%(tasks-1)) % tasks
			q := deps.PhaserID(len(phasers) + 1)
			phasers = append(phasers, phaser{a, b})
			regs[a] = append(regs[a], deps.Reg{Phaser: q})
			regs[b] = append(regs[b], deps.Reg{Phaser: q})
		}
	}
	arrive := func(task int, q deps.PhaserID, phase int64) Event {
		for i := range regs[task] {
			if regs[task][i].Phaser == q {
				regs[task][i].Phase = phase
			}
		}
		return Event{Kind: KindArrive, Task: deps.TaskID(task + 1), Phaser: q, Phase: phase}
	}
	var out []Event
	for lap := int64(1); lap <= int64(laps); lap++ {
		for i, p := range phasers {
			q := deps.PhaserID(i + 1)
			a := deps.TaskID(p.a + 1)
			out = append(out, arrive(p.a, q, lap), Event{Kind: KindBlock, Task: a, Status: deps.Blocked{
				Task: a, WaitsFor: []deps.Resource{{Phaser: q, Phase: lap}}, Regs: slices.Clone(regs[p.a])}},
				arrive(p.b, q, lap), Event{Kind: KindUnblock, Task: a})
		}
	}
	return out
}

// reblockFrames frames events as the SDK does: a block goes as a re-block
// whenever the reference rule allows, with a new slab every slab events.
func reblockFrames(t testing.TB, events []Event, slab int) []byte {
	t.Helper()
	type last struct {
		ord uint64
		st  deps.Blocked
	}
	ledger := map[deps.TaskID]*last{}
	var frames []byte
	var ord, start uint64
	for i := range events {
		e := &events[i]
		if i%slab == 0 {
			start = ord + 1
		}
		if e.Kind != KindBlock {
			frames = mustFrame(t, frames, e)
			continue
		}
		ord++
		l := ledger[e.Task]
		if l == nil {
			l = &last{}
			ledger[e.Task] = l
		}
		ok := false
		if Reblockable(l.ord, start, ord) {
			frames, ok = AppendReblockFrame(frames, &l.st, &e.Status)
		}
		if !ok {
			frames = mustFrame(t, frames, e)
		}
		l.ord, l.st = ord, copyStatus(e.Status)
	}
	return frames
}

func mustFrame(t testing.TB, frames []byte, e *Event) []byte {
	t.Helper()
	frames, err := AppendEventFrame(frames, *e)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// streamOf wraps event frames in a trace: magic, header, frames, footer.
func streamOf(t testing.TB, frames []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "reblock", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrames(frames); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReblockStreamDecodesAsSent: a Mesh stream framed with re-blocks, in
// slabs of several sizes, decodes through the Reader — whole or in chunks —
// and through a Ledger to exactly the events that were framed, in about
// half the bytes of the full frames.
func TestReblockStreamDecodesAsSent(t *testing.T) {
	events := meshStream(4)
	full := len(streamOf(t, reblockFrames(t, events, 1)))
	for _, slab := range []int{1, 7, 300, len(events)} {
		frames := reblockFrames(t, events, slab)
		data := streamOf(t, frames)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("slab %d: %v", slab, err)
		}
		if !reflect.DeepEqual(got.Events, events) {
			t.Fatalf("slab %d: the stream decodes to other events than were framed", slab)
		}
		whole := streamOutcome(data, chunkings[0].wrap)
		for _, c := range chunkings[1:] {
			if got := streamOutcome(data, c.wrap); got != whole {
				t.Fatalf("slab %d: %s reader diverges from the unchunked one", slab, c.name)
			}
		}
		var led Ledger
		var e Event
		for i, rest := 0, frames; len(rest) > 0; i++ {
			var payload []byte
			if payload, rest, err = NextFrame(rest); err == nil {
				err = led.Decode(payload, &e)
			}
			if err != nil || !reflect.DeepEqual(normalize(e), events[i]) {
				t.Fatalf("slab %d: ledger decode of event %d: %v", slab, i, err)
			}
		}
		if slab == 1 && len(data) != full {
			t.Fatalf("slabs of one event hold %d bytes, full frames %d", len(data), full)
		}
		if slab >= 300 && 2*len(data) > full+full/10 {
			t.Errorf("slab %d: %d bytes against %d in full frames", slab, len(data), full)
		}
	}
}

// goldenReblocks pins the re-block layout: each frame is hex of a re-block
// of ref's task, read against ref.
var goldenReblocks = []struct {
	name    string
	ref, st deps.Blocked
	hex     string
}{
	{"two-advanced",
		deps.Blocked{Task: 3, WaitsFor: []deps.Resource{{Phaser: 9, Phase: 1}},
			Regs: []deps.Reg{{Phaser: 9, Phase: 1}, {Phaser: 4, Phase: 7}, {Phaser: 5, Phase: 2}, {Phaser: 6, Phase: -1}}},
		deps.Blocked{Task: 3, WaitsFor: []deps.Resource{{Phaser: 5, Phase: 3}},
			Regs: []deps.Reg{{Phaser: 9, Phase: 2}, {Phaser: 4, Phase: 7}, {Phaser: 5, Phase: 2}, {Phaser: 6, Phase: 300}}},
		"0b0706010a0602000202da04"},
	{"unchanged-wide-ids",
		deps.Blocked{Task: -2 << 40, Regs: []deps.Reg{{Phaser: 1 << 62, Phase: 5}}},
		deps.Blocked{Task: -2 << 40, WaitsFor: []deps.Resource{{Phaser: 1 << 62, Phase: 6}}, Regs: []deps.Reg{{Phaser: 1 << 62, Phase: 5}}},
		"1407ffffffffff7f01808080808080808080010c00"},
}

func TestGoldenReblockFrames(t *testing.T) {
	for _, g := range goldenReblocks {
		frame, ok := AppendReblockFrame(nil, &g.ref, &g.st)
		if !ok {
			t.Fatalf("%s: not framed as a re-block", g.name)
		}
		if got := hex.EncodeToString(frame); got != g.hex {
			t.Errorf("GOLDEN %s %s", g.name, got)
			continue
		}
		refFrame, err := AppendEventFrame(nil, Event{Kind: KindBlock, Task: g.ref.Task, Status: g.ref})
		if err != nil {
			t.Fatal(err)
		}
		var led Ledger
		var e Event
		for _, f := range [][]byte{refFrame, frame} {
			payload, _, err := NextFrame(f)
			if err == nil {
				err = led.Decode(payload, &e)
			}
			if err != nil {
				t.Fatalf("%s: %v", g.name, err)
			}
		}
		if want := (Event{Kind: KindBlock, Task: g.st.Task, Status: g.st}); !reflect.DeepEqual(normalize(e), normalize(want)) {
			t.Errorf("%s decodes to\n%+v, want\n%+v", g.name, e, want)
		}
		if err := DecodeFramePayload(frame[1:], &e); err == nil || !strings.Contains(err.Error(), "trace: re-block frame: decodes only in the stream it came in") {
			t.Errorf("%s: a stateless decode of a re-block: %v", g.name, err)
		}
	}
}

// TestReblockNeedsSameShape: a status on other phasers, or on the same ones
// in another order, or of another task, is no re-block of the reference.
func TestReblockNeedsSameShape(t *testing.T) {
	ref := deps.Blocked{Task: 1, Regs: []deps.Reg{{Phaser: 1}, {Phaser: 2}}}
	for name, st := range map[string]deps.Blocked{
		"other task":   {Task: 2, Regs: []deps.Reg{{Phaser: 1}, {Phaser: 2}}},
		"fewer regs":   {Task: 1, Regs: []deps.Reg{{Phaser: 1}}},
		"other order":  {Task: 1, Regs: []deps.Reg{{Phaser: 2}, {Phaser: 1}}},
		"other phaser": {Task: 1, Regs: []deps.Reg{{Phaser: 1}, {Phaser: 3}}},
	} {
		if buf, ok := AppendReblockFrame([]byte{9}, &ref, &st); ok || !bytes.Equal(buf, []byte{9}) {
			t.Errorf("%s: framed as a re-block (% x)", name, buf)
		}
	}
}

// reblockRefusals are streams whose re-block no reader may accept, each
// with the words it must be refused by. They seed FuzzTraceCodec.
func reblockRefusals(t testing.TB) map[string]struct {
	data []byte
	want string
} {
	t.Helper()
	st := func(task deps.TaskID, phase int64) deps.Blocked {
		return deps.Blocked{Task: task, Regs: []deps.Reg{{Phaser: 1, Phase: phase}, {Phaser: 2, Phase: phase}}}
	}
	block := func(frames []byte, b deps.Blocked) []byte {
		return mustFrame(t, frames, &Event{Kind: KindBlock, Task: b.Task, Status: b})
	}
	reblock := func(frames []byte, ref, b deps.Blocked) []byte {
		frames, ok := AppendReblockFrame(frames, &ref, &b)
		if !ok {
			t.Fatal("not a re-block")
		}
		return frames
	}
	// Task 1's reference lies reblockWindow block frames back: task 2 blocks
	// reblockWindow-1 times in between.
	far := block(nil, st(1, 0))
	for i := 1; i < reblockWindow; i++ {
		far = block(far, st(2, int64(i)))
	}
	out := map[string]struct {
		data []byte
		want string
	}{
		"reblock_unknown_task": {reblock(block(nil, st(1, 0)), st(3, 0), st(3, 1)), "task3 has no block frame among the last 128"},
		"reblock_window":       {reblock(far, st(1, 0), st(1, 1)), "task1 has no block frame among the last 128"},
		// Task 1 has two registrations; the frames claim a third is changed,
		// and three changes.
		"reblock_index_past": {block(nil, st(1, 0)), "registration index past task1's 2"},
		"reblock_count":      {block(nil, st(1, 0)), "3 phases advanced of task1's 2 registrations"},
	}
	for name, tail := range map[string][]byte{
		"reblock_index_past": {6, byte(kindReblock), 2, 0, 1, 2, 2},
		"reblock_count":      {4, byte(kindReblock), 2, 0, 3},
	} {
		c := out[name]
		c.data = append(c.data, tail...)
		out[name] = c
	}
	for name, c := range out {
		c.data = streamOf(t, c.data)
		out[name] = c
	}
	return out
}

// TestReblockRefusedByName: a re-block of a task the stream never blocked,
// one whose reference lies reblockWindow block frames back, one naming a
// registration past the reference's, and one changing more registrations
// than the reference has are each refused with their reason, by every
// reader; one block frame nearer, the far reference is accepted.
func TestReblockRefusedByName(t *testing.T) {
	for name, c := range reblockRefusals(t) {
		if _, err := Decode(c.data); err == nil || !strings.Contains(err.Error(), "trace: re-block frame: "+c.want) {
			t.Errorf("%s: %v, want %q", name, err, c.want)
		}
		for _, ch := range chunkings[1:] {
			if got := streamOutcome(c.data, ch.wrap); !strings.Contains(got, c.want) {
				t.Errorf("%s: %s reader: %s", name, ch.name, tail(got))
			}
		}
	}
	st := func(task deps.TaskID, phase int64) deps.Blocked {
		return deps.Blocked{Task: task, Regs: []deps.Reg{{Phaser: 1, Phase: phase}}}
	}
	var events []Event
	for i := 0; i < reblockWindow-1; i++ {
		events = append(events, Event{Kind: KindBlock, Task: deps.TaskID(1 + i), Status: st(deps.TaskID(1+i), 0)})
	}
	events = append(events, Event{Kind: KindBlock, Task: 1, Status: st(1, 1)})
	data := streamOf(t, reblockFrames(t, events, len(events)))
	if tr, err := Decode(data); err != nil || !reflect.DeepEqual(tr.Events, events) {
		t.Fatalf("a reference reblockWindow-1 block frames back: %v", err)
	}
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var e Event
	for range events {
		if err := r.NextInto(&e); err != nil {
			t.Fatal(err)
		}
	}
	if r.Ref() != 1 || r.Blocks() != reblockWindow {
		t.Fatalf("the last block frame, number %d, is a re-block of %d, want of 1", r.Blocks(), r.Ref())
	}
}

// archive cuts what r reads of data into batches of batch events, each
// framed with AppendArchived from the block ordinal its first block frame
// takes, and returns them.
func archive(t *testing.T, data []byte, batch int) [][]byte {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	var e Event
	var start uint64
	for i := 0; ; i++ {
		next := r.Blocks() + 1
		if err := r.NextInto(&e); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatal(err)
		}
		if i%batch == 0 {
			out, start = append(out, nil), next
		}
		if out[len(out)-1], err = r.AppendArchived(out[len(out)-1], start); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendArchived: a Mesh stream sent in full frames, in re-blocks of
// small SDK slabs and in re-blocks of large ones, archived in batches of
// several sizes: every batch decodes on its own to the events that were
// sent, and the archive is as dense as the re-block stream whoever sent it
// — a block goes as a re-block wherever its reference lies in the batch.
func TestAppendArchived(t *testing.T) {
	events := meshStream(4)
	var dense int
	for _, slab := range []int{len(events), 1, 7} {
		data := streamOf(t, reblockFrames(t, events, slab))
		for _, batch := range []int{1, 7, 300, len(events)} {
			size, i := 0, 0
			for _, frames := range archive(t, data, batch) {
				size += len(frames)
				var led Ledger
				var e Event
				for rest := frames; len(rest) > 0; i++ {
					var payload []byte
					var err error
					if payload, rest, err = NextFrame(rest); err == nil {
						err = led.Decode(payload, &e)
					}
					if err != nil || !reflect.DeepEqual(normalize(e), events[i]) {
						t.Fatalf("slab %d, batch %d: event %d decodes alone to %v (%v)", slab, batch, i, e, err)
					}
				}
			}
			if i != len(events) {
				t.Fatalf("slab %d, batch %d: %d events archived of %d", slab, batch, i, len(events))
			}
			switch {
			case slab == len(events) && batch == len(events):
				dense = size
			case batch == len(events) && size != dense:
				t.Errorf("slab %d: one batch holds %d bytes, the re-block stream's %d", slab, size, dense)
			}
		}
	}
}

// TestAppendArchivedKeepsOtherShapes: a full block frame on other phasers
// than its task's previous one, or on the same ones in another order, is
// archived as it arrived.
func TestAppendArchivedKeepsOtherShapes(t *testing.T) {
	regs := func(qs ...deps.PhaserID) []deps.Reg {
		var out []deps.Reg
		for _, q := range qs {
			out = append(out, deps.Reg{Phaser: q, Phase: 1})
		}
		return out
	}
	var events []Event
	for _, r := range [][]deps.Reg{regs(1, 2), regs(1, 3), regs(3, 1)} {
		events = append(events, Event{Kind: KindBlock, Task: 1, Status: deps.Blocked{Task: 1, Regs: r}})
	}
	frames := reblockFrames(t, events, 1)
	if got := archive(t, streamOf(t, frames), len(events)); len(got) != 1 || !bytes.Equal(got[0], frames) {
		t.Fatalf("archived as % x, sent as % x", got, frames)
	}
}

// TestLedgerBounded: over 10^5 short-lived tasks, each blocking twice, the
// reader's ledger never holds more than 2·reblockWindow tasks, nor keeps
// more than that many entries for reuse.
func TestLedgerBounded(t *testing.T) {
	var frames []byte
	const tasks = 100_000
	for task := deps.TaskID(1); task <= tasks; task++ {
		for phase := int64(0); phase < 2; phase++ {
			b := deps.Blocked{Task: task, Regs: []deps.Reg{{Phaser: 1, Phase: phase}}}
			frames = mustFrame(t, frames, &Event{Kind: KindBlock, Task: task, Status: b})
		}
	}
	r, err := NewReader(bytes.NewReader(streamOf(t, frames)))
	if err != nil {
		t.Fatal(err)
	}
	most := 0
	var e Event
	for {
		if err := r.NextInto(&e); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		most = max(most, len(r.led.last)+len(r.led.free))
	}
	if r.Blocks() != 2*tasks || most > 2*reblockWindow {
		t.Fatalf("%d block frames; the ledger held up to %d entries, bound %d", r.Blocks(), most, 2*reblockWindow)
	}
}

// BenchmarkDecodeStream is the read loop's decode of a Mesh(8,8) stream
// (trace.Reader over the bytes, as armus-serve reads a connection) in full
// frames and in the re-block frames the SDK sends with 300-event slabs.
func BenchmarkDecodeStream(b *testing.B) {
	events := meshStream(4)
	for _, bc := range []struct {
		name string
		slab int
	}{{"full", 1}, {"reblock", 300}} {
		b.Run(bc.name, func(b *testing.B) {
			data := streamOf(b, reblockFrames(b, events, bc.slab))
			b.ReportAllocs()
			b.ResetTimer()
			var e Event
			for i := 0; i < b.N; i++ {
				r, err := NewReader(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				for err == nil {
					err = r.NextInto(&e)
				}
				if err != io.EOF {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
			b.ReportMetric(float64(len(data))/float64(len(events)), "B/event")
		})
	}
}
