package dist

import (
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"armus/internal/deps"
)

// goldenStatuses ascend by task, as a delta's upserts must: a negative, a
// zero with empty lists, and a near-MaxInt64 ID.
var goldenStatuses = []deps.Blocked{
	{Task: -3, WaitsFor: []deps.Resource{{Phaser: 0, Phase: 0}, {Phaser: math.MaxInt64 - 1, Phase: -1}},
		Regs: []deps.Reg{{Phaser: math.MaxInt64, Phase: math.MaxInt64 - 2}}},
	{Task: 0},
	{Task: math.MaxInt64 - 4, WaitsFor: []deps.Resource{{Phaser: 2<<32 + 1, Phase: 7}},
		Regs: []deps.Reg{{Phaser: 2<<32 + 1, Phase: 6}, {Phaser: -9, Phase: 300}}},
}

// The hex strings below were printed by encodeSnapshot and encodeDelta of
// the commit before internal/wire existed (26b55cd, PR 21), not by this
// one's: ARMUSD1 and ARMUSI1 did not move if today's encoders still produce
// them and today's decoders still read them back.
const (
	goldenSnapshot = "41524d55534431058080808080200305020000fcffffffffffffffff010101feffffffffffffffff01faffffffffffffffff01000000f6ffffffffffffffff010182808080400e0282808080400c11d804"
	goldenDelta    = "41524d5553493105ac0280808080802003ffffffffffffffffff0101100305020000fcffffffffffffffff010101feffffffffffffffff01faffffffffffffffff01000000f6ffffffffffffffff010182808080400e0282808080400c11d804"
)

func TestGoldenSnapshotAndDelta(t *testing.T) {
	if got := hex.EncodeToString(encodeSnapshot(5, 1<<40, goldenStatuses)); got != goldenSnapshot {
		t.Errorf("GOLDEN snapshot %s", got)
	}
	removed := []deps.TaskID{math.MinInt64, -1, 8}
	if got := hex.EncodeToString(encodeDelta(5, 300, 1<<40, removed, goldenStatuses)); got != goldenDelta {
		t.Errorf("GOLDEN delta %s", got)
	}
	if t.Failed() {
		return
	}
	raw, _ := hex.DecodeString(goldenSnapshot)
	id, seq, snap, err := decodeSnapshot(raw)
	if err != nil || id != 5 || seq != 1<<40 || !reflect.DeepEqual(snap, goldenStatuses) {
		t.Errorf("snapshot decodes to site %d seq %d %+v, %v", id, seq, snap, err)
	}
	raw, _ = hex.DecodeString(goldenDelta)
	id, base, seq, rem, ups, err := decodeDelta(raw)
	if err != nil || id != 5 || base != 300 || seq != 1<<40 ||
		!reflect.DeepEqual(rem, removed) || !reflect.DeepEqual(ups, goldenStatuses) {
		t.Errorf("delta decodes to site %d seqs %d..%d -%v +%+v, %v", id, base, seq, rem, ups, err)
	}
}
