package trace

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// chunkReader hands out at most n bytes per Read, so frames straddle the
// reader's refills at every possible offset.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// chunkings are the ways the differential tests (and FuzzTraceCodec) feed
// one byte stream to a Reader: whole, seven bytes at a time, one byte at a
// time. What is decoded must not depend on which.
var chunkings = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"7-byte", func(r io.Reader) io.Reader { return &chunkReader{r: r, n: 7} }},
	{"1-byte", iotest.OneByteReader},
}

// streamOutcome drains data through NextInto behind the given chunking and
// renders everything observable: header, every event, and the final error.
func streamOutcome(data []byte, wrap func(io.Reader) io.Reader) string {
	var b strings.Builder
	r, err := NewReader(wrap(bytes.NewReader(data)))
	if err != nil {
		return "open: " + err.Error()
	}
	fmt.Fprintf(&b, "%q mode %d\n", r.Label(), r.Mode())
	var e Event
	for {
		if err := r.NextInto(&e); err != nil {
			fmt.Fprintf(&b, "end: %v", err)
			return b.String()
		}
		fmt.Fprintf(&b, "%+v\n", normalize(e))
	}
}

// fuzzSeedCorpus loads the checked-in FuzzTraceCodec seed inputs.
func fuzzSeedCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzTraceCodec", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("fuzz seed corpus: %v (%d files)", err, len(paths))
	}
	out := make(map[string][]byte)
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, ok := strings.Cut(string(raw), "\n")
		lit = strings.TrimSpace(lit)
		if !ok || !strings.HasPrefix(lit, "[]byte(") || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: not a one-value []byte corpus file", p)
		}
		s, err := strconv.Unquote(lit[len("[]byte(") : len(lit)-1])
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out["fuzz/"+filepath.Base(p)] = []byte(s)
	}
	return out
}

// damaged returns the four corruptions of a valid trace the windowed path
// must report exactly like the unchunked one.
func damaged(good []byte) map[string][]byte {
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-10] ^= 0x40
	badFoot := append([]byte(nil), good...)
	badFoot[len(badFoot)-1] ^= 0xff
	return map[string][]byte{
		"truncated-frame": good[:len(good)-7],
		"flipped-payload": flipped,
		"bad-footer":      badFoot,
		"trailing-byte":   append(append([]byte(nil), good...), 0),
	}
}

// TestReaderWindowDifferential: every corpus trace and every fuzz seed, and
// four corruptions of each valid one, decode to the same events and end in
// the same error string whether the bytes arrive whole, seven at a time or
// one at a time — the in-place window must not let a refill boundary show.
func TestReaderWindowDifferential(t *testing.T) {
	inputs := fuzzSeedCorpus(t)
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.trace"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("trace corpus: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		inputs["corpus/"+filepath.Base(p)] = data
	}
	for name, data := range inputs {
		if _, err := Decode(data); err == nil {
			for kind, bad := range damaged(data) {
				inputs[name+"/"+kind] = bad
			}
		}
	}
	for name, data := range inputs {
		want := streamOutcome(data, chunkings[0].wrap)
		for _, c := range chunkings[1:] {
			if got := streamOutcome(data, c.wrap); got != want {
				t.Errorf("%s: %s reader diverges from the unchunked one:\n%s\nvs\n%s",
					name, c.name, tail(got), tail(want))
			}
		}
		kind := name[strings.LastIndex(name, "/")+1:]
		if end, ok := damagedEnd[kind]; ok && !strings.Contains(want, end) {
			t.Errorf("%s: outcome lacks %q: %s", name, end, tail(want))
		}
		if kind == "flipped-payload" && strings.HasSuffix(want, "end: EOF") {
			t.Errorf("%s: a flipped byte went unnoticed", name)
		}
	}
}

// damagedEnd is how each corruption of damaged must be reported (a flipped
// payload byte may show anywhere from the frame's decode to the footer).
var damagedEnd = map[string]string{
	"truncated-frame": "trace: truncated: unexpected EOF",
	"bad-footer":      "end: trace: CRC mismatch: footer ",
	"trailing-byte":   "end: trace: trailing byte 0x00 after CRC footer",
}

// tail keeps failure output readable: the last lines of an outcome.
func tail(s string) string {
	lines := strings.Split(s, "\n")
	if len(lines) > 3 {
		lines = lines[len(lines)-3:]
	}
	return strings.Join(lines, "\n")
}

// TestReaderFrameStraddlesRefill pins the case the differential reaches
// only by luck of sizes: a frame whose length prefix is the last byte of
// one window and whose payload arrives with the next, and a frame larger
// than the window itself.
func TestReaderFrameStraddlesRefill(t *testing.T) {
	events := wireEvents(2000)
	big := Event{Kind: KindBlock, Task: 9}
	big.Status.Task = 9
	for i := 0; i < 3*readerWindow; i++ {
		big.Status.Regs = append(big.Status.Regs, wireEvents(2)[1].Status.Regs[0])
	}
	events = append(events, big)
	events = append(events, wireEvents(10)...)
	var buf bytes.Buffer
	if err := Encode(&buf, &Trace{Label: "straddle", Mode: 2, Events: events}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	want, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets 1..16 before the window boundary put every byte of a small
	// frame, prefix included, on the boundary in turn.
	for skew := 1; skew <= 16; skew++ {
		src, first := bytes.NewReader(data), true
		r, err := NewReader(readerFunc(func(p []byte) (int, error) {
			if first { // a short first read shifts every later boundary
				first = false
				p = p[:readerWindow-skew]
			}
			return src.Read(p)
		}))
		if err != nil {
			t.Fatal(err)
		}
		var e Event
		for i := range want.Events {
			if err := r.NextInto(&e); err != nil {
				t.Fatalf("skew %d: event %d: %v", skew, i, err)
			}
			if fmt.Sprintf("%+v", normalize(e)) != fmt.Sprintf("%+v", normalize(want.Events[i])) {
				t.Fatalf("skew %d: event %d differs:\n%+v\nvs\n%+v", skew, i, e, want.Events[i])
			}
		}
		if err := r.NextInto(&e); err != io.EOF {
			t.Fatalf("skew %d: end: %v, want io.EOF", skew, err)
		}
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }
