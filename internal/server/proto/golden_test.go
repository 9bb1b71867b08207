package proto

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"

	"armus/internal/deps"
)

// sampleResponses holds every response kind in every shape: the golden
// vectors below and FuzzResponse's seeds.
func sampleResponses() []Response {
	tasks := []deps.TaskID{-3, 0, math.MaxInt64 - 1}
	resources := []deps.Resource{{Phaser: 4, Phase: 2}, {Phaser: math.MaxInt64, Phase: -1}}
	return []Response{
		{Kind: RespHello, Mode: 255, Resumed: true},
		{Kind: RespHello, Mode: 1},
		{Kind: RespGate, Task: 42, Allowed: true},
		{Kind: RespGate, Task: math.MinInt64, Tasks: tasks, Resources: resources},
		{Kind: RespVerdict, Seq: 1 << 40, Deadlocked: true},
		{Kind: RespVerdict, Seq: 7},
		{Kind: RespReport, Tasks: tasks, Resources: resources},
		{Kind: RespGoodbye, Code: ByeDrain, Msg: "server draining"},
		{Kind: RespGoodbye, Code: ByeMalformed},
		{Kind: RespGoodbye, Code: ByeSession, Msg: strings.Repeat("m", 256)},
	}
}

// aliasVerdict is response kind 259 (0x83 0x02): cut to a byte it reads
// "verdict seq 7 deadlocked", and a decoder that narrows before it looks
// accepts it.
var aliasVerdict = []byte{0x83, 0x02, 0x07, 0x01}

// goldenResponses are sampleResponses' frames but the last (a 256-byte
// goodbye says nothing a short one does not) as the commit before
// internal/wire existed (26b55cd, PR 21) encoded them: the hex strings were
// printed by that commit's AppendResponse, not by this one's.
var goldenResponses = []string{
	"8580000101ff0101", "84800001010100", "838000025401", "a7800002ffffffffffffffffff0100030500fcffffffffffffffff01020804feffffffffffffffff0101", "8880000380808080802001", "838000030700", "9c800004030500fcffffffffffffffff01020804feffffffffffffffff0101", "92800005010f73657276657220647261696e696e67", "838000050200",
}

func TestGoldenResponses(t *testing.T) {
	for i, want := range goldenResponses {
		r := sampleResponses()[i]
		frame, err := AppendResponse(nil, &r)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if got := hex.EncodeToString(frame); got != want {
			t.Errorf("GOLDEN %d %s", i, got)
			continue
		}
		var got Response
		if err := ReadResponse(bufio.NewReader(bytes.NewReader(frame)), &got); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if got.buf = nil; !reflect.DeepEqual(got, r) {
			t.Errorf("response %d decodes to\n%+v, want\n%+v", i, got, r)
		}
	}
}

// TestWideKindIsNotItsLowByte: response kind 259 is not a verdict.
func TestWideKindIsNotItsLowByte(t *testing.T) {
	var r Response
	if err := decodeResponse(aliasVerdict, &r); err == nil {
		t.Fatalf("payload % x accepted as %+v", aliasVerdict, r)
	}
	if err := decodeResponse([]byte{0x83, 0x00, 0x07, 0x01}, &r); err != nil || r.Kind != RespVerdict || r.Seq != 7 || !r.Deadlocked {
		t.Fatalf("kind 3 spelt in two bytes: %+v, %v", r, err)
	}
}
