package trace

import (
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"armus/internal/deps"
)

// goldenStatus has a negative, a zero and two near-MaxInt64 IDs.
var goldenStatus = deps.Blocked{
	Task:     -3,
	WaitsFor: []deps.Resource{{Phaser: 0, Phase: 0}, {Phaser: math.MaxInt64 - 1, Phase: -1}},
	Regs:     []deps.Reg{{Phaser: math.MaxInt64, Phase: math.MaxInt64 - 2}},
}

// wideStatus encodes to more than 127 bytes: a two-byte frame prefix.
func wideStatus() deps.Blocked {
	b := deps.Blocked{Task: 1, WaitsFor: []deps.Resource{{Phaser: 1, Phase: 1}}}
	for q := deps.PhaserID(100); q < 145; q++ {
		b.Regs = append(b.Regs, deps.Reg{Phaser: q, Phase: 0})
	}
	return b
}

// goldenFrames holds every event kind's frame as the commit before
// internal/wire existed (26b55cd, PR 21) encoded it: the hex strings were
// printed by that commit's AppendEventFrame, not by this one's. The formats
// did not move if today's encoder still produces them and today's decoder
// still reads them back.
var goldenFrames = []struct {
	name string
	e    Event
	hex  string
}{
	{"register", Event{Kind: KindRegister, Task: 7, Phaser: -2, Phase: 300, Mode: 255}, "07010e03d804ff01"},
	{"arrive", Event{Kind: KindArrive, Task: 1<<32 + 1, Phaser: 3<<32 + 2, Phase: -1}, "0c028280808020848080806001"},
	{"drop", Event{Kind: KindDrop, Task: 64, Phaser: 63}, "040380017e"},
	{"block", Event{Kind: KindBlock, Task: -3, Status: goldenStatus}, "250405020000fcffffffffffffffff010101feffffffffffffffff01faffffffffffffffff01"},
	{"block-empty", Event{Kind: KindBlock}, "0404000000"},
	{"unblock", Event{Kind: KindUnblock, Task: math.MinInt64}, "0b05ffffffffffffffffff01"},
	{"rejected", Event{Kind: KindVerdict, Verdict: VerdictRejected, Task: -3, Status: goldenStatus,
		Tasks: []deps.TaskID{-3, 9}, Resources: []deps.Resource{{Phaser: 4, Phase: 2}, {Phaser: 5, Phase: 1 << 40}}}, "33060105020000fcffffffffffffffff010101feffffffffffffffff01faffffffffffffffff010205120208040a808080808040"},
	{"reported", Event{Kind: KindVerdict, Verdict: VerdictReported,
		Tasks: []deps.TaskID{1, 2, 3}, Resources: []deps.Resource{{Phaser: 1, Phase: 1}}}, "09060203020406010202"},
	{"checkpoint", Event{Kind: KindVerdict, Verdict: VerdictReported}, "0406020000"},
	{"wide", Event{Kind: KindBlock, Task: 1, Status: wideStatus()}, "8d0104020102022dc80100ca0100cc0100ce0100d00100d20100d40100d60100d80100da0100dc0100de0100e00100e20100e40100e60100e80100ea0100ec0100ee0100f00100f20100f40100f60100f80100fa0100fc0100fe01008002008202008402008602008802008a02008c02008e02009002009202009402009602009802009a02009c02009e0200a00200"},
}

func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames {
		frame, err := AppendEventFrame(nil, g.e)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := hex.EncodeToString(frame); got != g.hex {
			t.Errorf("GOLDEN %s %s", g.name, got)
			continue
		}
		payload, rest, err := NextFrame(frame)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: NextFrame: %d bytes left, %v", g.name, len(rest), err)
		}
		var e Event
		if err := DecodeFramePayload(payload, &e); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !reflect.DeepEqual(e, g.e) {
			t.Errorf("%s decodes to\n%+v, want\n%+v", g.name, e, g.e)
		}
	}
	if wide := goldenFrames[len(goldenFrames)-1].hex; len(wide) < 2*130 {
		t.Errorf("the wide frame is %d bytes: no two-byte prefix", len(wide)/2)
	}
}
