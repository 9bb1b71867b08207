package segment

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"armus/internal/deps"
	"armus/internal/trace"
)

// inflate is the oracle: compress/flate's reader, the one Segment.Block
// uses.
func inflate(t testing.TB, comp []byte) []byte {
	t.Helper()
	out, err := io.ReadAll(flate.NewReader(bytes.NewReader(comp)))
	if err != nil {
		t.Fatalf("inflate: %v", err)
	}
	return out
}

// flateBytes compresses src with compress/flate's writer fl, into a reused
// buffer.
func flateBytes(fl *flate.Writer, buf *bytes.Buffer, src []byte) []byte {
	buf.Reset()
	fl.Reset(buf)
	fl.Write(src)
	fl.Close()
	return buf.Bytes()
}

// meshFrames returns the frames of a Mesh(tasks, own)-shaped program, the
// benchmark's serve-stream shape, generated the way its generator does:
// tasks×own two-member phasers, phaser k*tasks+a joining task a with task
// a+1+k%(tasks-1), every task advancing its phasers in ascending order
// under a random schedule, so every blocked status carries 2×own
// registrations; and a checkpoint every 256 mutations, as the stream sends.
func meshFrames(t testing.TB, seed int64, tasks, own, rounds int) []byte {
	t.Helper()
	type task struct {
		prog         []int // phaser indexes, ascending
		phase        []int64
		pc, round    int
		blocked, run bool
	}
	ts := make([]*task, tasks)
	for i := range ts {
		ts[i] = &task{run: true}
	}
	var members [][2]int
	var evs []trace.Event
	for k := 0; k < own; k++ {
		for a := 0; a < tasks; a++ {
			members = append(members, [2]int{a, (a + 1 + k%(tasks-1)) % tasks})
		}
	}
	for q, m := range members {
		for _, a := range m {
			ts[a].prog = append(ts[a].prog, q)
			ts[a].phase = append(ts[a].phase, 0)
			evs = append(evs, trace.Event{Kind: trace.KindRegister, Task: deps.TaskID(a + 1), Phaser: deps.PhaserID(q + 1)})
		}
	}
	arrived := make([]int, len(members))
	waiters := make([][]int, len(members))
	runnable := make([]int, tasks)
	for i := range runnable {
		runnable[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	next := func(x *task) {
		if x.pc++; x.pc == len(x.prog) {
			x.pc = 0
			if x.round++; x.round == rounds {
				x.run = false
			}
		}
	}
	for len(runnable) > 0 {
		ri := rng.Intn(len(runnable))
		a := runnable[ri]
		x := ts[a]
		if x.blocked {
			evs = append(evs, trace.Event{Kind: trace.KindUnblock, Task: deps.TaskID(a + 1)})
			x.blocked = false
			next(x)
		} else {
			q := x.prog[x.pc]
			x.phase[x.pc]++
			n := x.phase[x.pc]
			evs = append(evs, trace.Event{Kind: trace.KindArrive, Task: deps.TaskID(a + 1), Phaser: deps.PhaserID(q + 1), Phase: n})
			if arrived[q]++; arrived[q] == 2 {
				arrived[q] = 0
				runnable = append(runnable, waiters[q]...)
				waiters[q] = waiters[q][:0]
				next(x)
			} else {
				st := deps.Blocked{Task: deps.TaskID(a + 1), WaitsFor: []deps.Resource{{Phaser: deps.PhaserID(q + 1), Phase: n}}}
				for i, p := range x.prog {
					st.Regs = append(st.Regs, deps.Reg{Phaser: deps.PhaserID(p + 1), Phase: x.phase[i]})
				}
				evs = append(evs, trace.Event{Kind: trace.KindBlock, Task: st.Task, Status: st})
				x.blocked = true
				waiters[q] = append(waiters[q], a)
			}
		}
		if x.blocked || !x.run {
			runnable[ri] = runnable[len(runnable)-1]
			runnable = runnable[:len(runnable)-1]
		}
	}
	var frames []byte
	for i, e := range evs {
		var err error
		if frames, err = trace.AppendEventFrame(frames, e); err != nil {
			t.Fatal(err)
		}
		if i%256 == 255 {
			frames, _ = trace.AppendEventFrame(frames, trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported})
		}
	}
	return frames
}

// blocksOf cuts a run of frames into archive blocks the way Writer.Append
// does with one-frame batches: a block ends before the frame that would take
// it past limit bytes.
func blocksOf(t testing.TB, frames []byte, limit int) [][]byte {
	t.Helper()
	var blocks [][]byte
	start := 0
	for rest := frames; len(rest) > 0; {
		_, r, err := trace.NextFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		end := len(frames) - len(r)
		if end-start > limit {
			blocks = append(blocks, frames[start:len(frames)-len(rest)])
			start = len(frames) - len(rest)
		}
		rest = r
	}
	return append(blocks, frames[start:])
}

// teeBatchBytes is the size at which the server's tee hands a connection's
// pending archive batch to the store (internal/server teeFlushBytes).
const teeBatchBytes = 8 << 10

// archiveBlocks is what the archive receives of a connection that sent
// frames: the tee frames each one into its pending batch with
// trace.Reader.AppendArchived and hands the batch over at teeBatchBytes, and
// the writer cuts a block before the batch that would take it past
// DefaultBlockBytes and once a batch fills it.
func archiveBlocks(t testing.TB, frames []byte) [][]byte {
	t.Helper()
	var stream bytes.Buffer
	tw, err := trace.NewWriter(&stream, "archive", 1)
	if err == nil {
		err = tw.WriteFrames(frames)
	}
	if err == nil {
		err = tw.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&stream)
	if err != nil {
		t.Fatal(err)
	}
	var blocks [][]byte
	var block, batch []byte
	start := uint64(1)
	hand := func() {
		if len(block) > 0 && len(block)+len(batch) > DefaultBlockBytes {
			blocks, block = append(blocks, block), nil
		}
		block, batch = append(block, batch...), batch[:0]
		if len(block) >= DefaultBlockBytes {
			blocks, block = append(blocks, block), nil
		}
		start = r.Blocks() + 1
	}
	for e := (trace.Event{}); ; {
		if err := r.NextInto(&e); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if batch, err = r.AppendArchived(batch, start); err != nil {
			t.Fatal(err)
		}
		if len(batch) >= teeBatchBytes {
			hand()
		}
	}
	hand()
	if len(block) > 0 {
		blocks = append(blocks, block)
	}
	return blocks
}

// corpusFrames is the repository corpus, every trace's events as frames.
func corpusFrames(t testing.TB) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/corpus/*.trace")
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus: %v (%d traces)", err, len(paths))
	}
	out := make(map[string][]byte)
	for _, p := range paths {
		tr, err := trace.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var frames []byte
		for _, e := range tr.Events {
			if frames, err = trace.AppendEventFrame(frames, e); err != nil {
				t.Fatal(err)
			}
		}
		out[filepath.Base(p)] = frames
	}
	return out
}

// storedBound is the size of src as stored blocks, the most encode may
// return.
func storedBound(n int) int { return n + 5*max(1, (n+maxStored-1)/maxStored) }

// expand builds the fuzzer's long inputs from short ones, since a fuzzer
// mutating and minimising 64 KiB inputs runs a few of them a minute: with n
// = 0 the input is data itself; otherwise it is n bytes (at most two
// blocks' worth) that start with data, run on pseudo-random up to period
// bytes, and from there on repeat the byte period back.
func expand(data []byte, n uint32, period uint16) []byte {
	if n == 0 {
		return data
	}
	src := make([]byte, n%(2*maxStored+2))
	copy(src, data)
	p, x := int(period)+1, uint64(0x9e3779b97f4a7c15)
	for i := len(data); i < len(src); i++ {
		if i >= p {
			src[i] = src[i-p]
			continue
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		src[i] = byte(x)
	}
	return src
}

// skewed is a byte string whose counts make an unlimited Huffman code
// deeper than 15 bits: byte i occurs fib(i+1) times.
func skewed() []byte {
	var src []byte
	for i, a, b := 0, 1, 1; i < 22; i, a, b = i+1, b, a+b {
		src = append(src, bytes.Repeat([]byte{byte(i)}, a)...)
	}
	return src
}

// FuzzBlockEncoder holds the encoder to compress/flate's inflater: every
// input inflates back exactly, compresses to no more than stored blocks
// would take, and compresses the same whether the encoder is fresh or has
// encoded other inputs before.
func FuzzBlockEncoder(f *testing.F) {
	mesh := meshFrames(f, 1, 8, 8, 2)
	for _, seed := range []struct {
		data   []byte
		n      uint32
		period uint16
	}{
		{nil, 0, 0},                 // empty
		{[]byte{7}, 0, 0},           // one byte
		{mesh[:600], 0, 0},          // a few statuses as they arrive
		{nil, maxStored - 1, 65535}, // incompressible, one stored block...
		{nil, maxStored, 65535},
		{nil, maxStored + 1, 65535},       // ...and two
		{mesh[:600], maxStored - 1, 599},  // a status stream of a block's size...
		{mesh[:600], 2 * maxStored, 599},  // ...and of a batch larger than a block
		{[]byte{'a'}, 5000, 0},            // one byte value: one literal code and end of block
		{skewed(), 0, 0},                  // codes cut to 15 bits
		{archiveBlocks(f, mesh)[0], 0, 0}, // statuses as the tee frames them
	} {
		f.Add(seed.data, seed.n, seed.period)
	}
	// fresh is zeroed before each use, all but the output buffer every
	// encode overwrites before reading: a fresh encoder without the
	// allocation.
	reused, fresh := new(blockEncoder), new(blockEncoder)
	f.Fuzz(func(t *testing.T, data []byte, n uint32, period uint16) {
		src := expand(data, n, period)
		comp := bytes.Clone(reused.encode(src))
		if got := inflate(t, comp); !bytes.Equal(got, src) {
			t.Fatalf("%d bytes inflate to %d different ones", len(src), len(got))
		}
		if len(comp) > storedBound(len(src)) {
			t.Fatalf("%d bytes compress to %d, more than stored blocks' %d", len(src), len(comp), storedBound(len(src)))
		}
		*fresh = blockEncoder{out: fresh.out}
		if again := fresh.encode(src); !bytes.Equal(again, comp) {
			t.Fatalf("a reused encoder's output differs from a fresh one's")
		}
	})
}

// TestBlockEncoderBytes holds the encoder to the size compress/flate's
// HuffmanOnly writer — the same problem, a literal-only code — reaches on
// the streams the archive sees: every corpus trace, and Mesh-shaped streams
// of three seeds cut into archive blocks, in full frames and as the tee
// frames them. A block may take 1 % more, plus the bytes of our header.
func TestBlockEncoderBytes(t *testing.T) {
	streams := corpusFrames(t)
	for seed := int64(1); seed <= 3; seed++ {
		frames := meshFrames(t, seed, 8, 8, 48)
		for i, b := range blocksOf(t, frames, DefaultBlockBytes) {
			streams[fmt.Sprintf("mesh-%d-block-%d", seed, i)] = b
		}
		for i, b := range archiveBlocks(t, frames) {
			streams[fmt.Sprintf("mesh-%d-archived-%d", seed, i)] = b
		}
	}
	fl, _ := flate.NewWriter(io.Discard, flate.HuffmanOnly)
	var buf bytes.Buffer
	e := new(blockEncoder)
	for name, src := range streams {
		ours, theirs := len(e.encode(src)), len(flateBytes(fl, &buf, src))
		t.Logf("%s: %d raw bytes, %d compressed (HuffmanOnly %d, %.3fx)", name, len(src), ours, theirs, float64(ours)/float64(theirs))
		if float64(ours) > 1.01*float64(theirs)+float64(headerBytes(e)) {
			t.Errorf("%s: %d bytes, more than 1.01x HuffmanOnly's %d plus a %d-byte header", name, ours, theirs, headerBytes(e))
		}
		if got := inflate(t, e.encode(src)); !bytes.Equal(got, src) {
			t.Errorf("%s does not inflate back", name)
		}
	}
}

// headerBytes is the size of the code-length header of the dynamic block e
// encoded last.
func headerBytes(e *blockEncoder) int {
	bits := 3 + 5 + 5 + 4 + 3*19
	for s, f := range e.clFreq {
		bits += int(f) * int(e.clLen[s]+clExtra[s])
	}
	return (bits + 7) / 8
}

func TestBlockEncodeZeroAlloc(t *testing.T) {
	src := archiveBlocks(t, meshFrames(t, 1, 8, 8, 48))[0]
	e := new(blockEncoder)
	e.encode(src)
	if n := testing.AllocsPerRun(20, func() { e.encode(src) }); n != 0 {
		t.Fatalf("a warm encode allocates %.1f times", n)
	}
}

// BenchmarkBlockEncode compresses what the archive receives of a Mesh(8,8)
// stream — its frames as the tee frames them, in archive blocks — with this
// encoder, and with compress/flate's HuffmanOnly and BestSpeed writers.
func BenchmarkBlockEncode(b *testing.B) {
	blocks := archiveBlocks(b, meshFrames(b, 1, 8, 8, 48))
	raw, events := 0, 0
	for _, blk := range blocks {
		raw += len(blk)
		for rest := blk; len(rest) > 0; events++ {
			_, rest, _ = trace.NextFrame(rest)
		}
	}
	run := func(b *testing.B, size func([]byte) int) {
		b.SetBytes(int64(raw))
		comp := 0
		for b.Loop() {
			comp = 0
			for _, blk := range blocks {
				comp += size(blk)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		b.ReportMetric(float64(comp)/float64(raw), "ratio")
	}
	b.Run("encoder", func(b *testing.B) {
		e := new(blockEncoder)
		run(b, func(src []byte) int { return len(e.encode(src)) })
	})
	for _, level := range []struct {
		name  string
		level int
	}{{"HuffmanOnly", flate.HuffmanOnly}, {"BestSpeed", flate.BestSpeed}} {
		b.Run(level.name, func(b *testing.B) {
			fl, _ := flate.NewWriter(io.Discard, level.level)
			var buf bytes.Buffer
			run(b, func(src []byte) int { return len(flateBytes(fl, &buf, src)) })
		})
	}
}
