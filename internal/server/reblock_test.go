package server

import (
	"strings"
	"testing"
	"time"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/server/proto"
	"armus/internal/trace"
)

// sdkFramer frames events as the SDK does when one slab holds them all: a
// block goes as a re-block of its task's last block frame whenever the
// reference rule allows.
type sdkFramer struct {
	ord  uint64
	last map[deps.TaskID]*lastBlock
}

type lastBlock struct {
	ord uint64
	st  deps.Blocked
}

func (f *sdkFramer) append(t *testing.T, frames []byte, e trace.Event) []byte {
	t.Helper()
	framed := false
	if e.Kind == trace.KindBlock {
		if f.last == nil {
			f.last = map[deps.TaskID]*lastBlock{}
		}
		f.ord++
		l := f.last[e.Task]
		if l == nil {
			l = &lastBlock{}
			f.last[e.Task] = l
		}
		if trace.Reblockable(l.ord, 1, f.ord) {
			frames, framed = trace.AppendReblockFrame(frames, &l.st, &e.Status)
		}
		l.ord = f.ord
		l.st.Task = e.Status.Task
		l.st.Regs = append(l.st.Regs[:0], e.Status.Regs...)
	}
	if !framed {
		var err error
		if frames, err = trace.AppendEventFrame(frames, e); err != nil {
			t.Fatal(err)
		}
	}
	return frames
}

// reblockFrames frames a whole stream with one sdkFramer.
func reblockFrames(t *testing.T, events []trace.Event) []byte {
	var f sdkFramer
	var frames []byte
	for _, e := range events {
		frames = f.append(t, frames, e)
	}
	return frames
}

// reblockWindow is the trace format's reach for a re-block's reference, in
// block frames: the least distance the reference rule refuses.
func reblockWindow() uint64 {
	w := uint64(1)
	for trace.Reblockable(1, 1, 1+w) {
		w++
	}
	return w
}

// TestMalformedReblockRefused: a re-block of a task the connection never
// blocked, one whose reference lies a window's worth of block frames back,
// and — the other framing hole a reader must not fall through — a frame
// length whose prefix does not fit 64 bits each end the connection with a
// malformed goodbye that names the fault.
func TestMalformedReblockRefused(t *testing.T) {
	s := testServer(t, Config{})
	one := func(task deps.TaskID, phase int64) deps.Blocked {
		return status(int64(task), []deps.Resource{res(int64(task), phase+1)}, []deps.Reg{reg(1, phase)})
	}
	block := func(frames []byte, b deps.Blocked) []byte {
		frames, err := trace.AppendEventFrame(frames, trace.Event{Kind: trace.KindBlock, Task: b.Task, Status: b})
		if err != nil {
			t.Fatal(err)
		}
		return frames
	}
	reblock := func(frames []byte, ref, b deps.Blocked) []byte {
		frames, ok := trace.AppendReblockFrame(frames, &ref, &b)
		if !ok {
			t.Fatal("not a re-block")
		}
		return frames
	}
	far := block(nil, one(1, 0))
	for i := uint64(1); i < reblockWindow(); i++ {
		far = block(far, one(2, int64(i)))
	}
	for name, c := range map[string]struct {
		frames []byte
		want   string
	}{
		"unknown task": {reblock(block(nil, one(1, 0)), one(3, 0), one(3, 1)), "re-block frame: task3 has no block frame among the last"},
		"window":       {reblock(far, one(1, 0), one(1, 1)), "re-block frame: task1 has no block frame among the last"},
		"prefix":       {[]byte{0x82, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, byte(trace.KindUnblock), 0x02}, "bad frame length prefix"},
	} {
		nc, tw, br, _ := rawAttach(t, s, "malformed-"+strings.ReplaceAll(name, " ", "-"), core.ModeDetect)
		if err := tw.WriteFrames(c.frames); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		var r proto.Response
		if err := proto.ReadResponse(br, &r); err != nil {
			t.Fatalf("%s: no goodbye: %v", name, err)
		}
		if r.Kind != proto.RespGoodbye || r.Code != proto.ByeMalformed || !strings.Contains(r.Msg, c.want) {
			t.Errorf("%s: got %v code=%d %q, want a malformed goodbye naming %q", name, r.Kind, r.Code, r.Msg, c.want)
		}
		nc.Close()
	}
	if n := s.Metrics().MalformedConns.Load(); n != 3 {
		t.Fatalf("%d connections counted malformed, want 3", n)
	}
}
