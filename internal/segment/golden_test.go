package segment

import (
	"encoding/hex"
	"math"
	"reflect"
	"testing"
)

// goldenIndexHex is the footer index of goldenIndex as appendIndex of the
// commit before internal/wire existed (26b55cd, PR 21) encoded it — printed
// by that commit, not by this one: the ARMUSSG1 footer did not move if
// today's appendIndex still produces it and today's parseIndex still reads
// it back.
const goldenIndexHex = "010280808080201074656e616e742d372f736861726420328080d0e2c6bfce972f80e08ae785c3ce972fac0209fcffffffffffffffff0105010400018101a9012802e8078020c801ffffffff0f09120164640014fcffffffffffffffff01"

func goldenIndex() *Index {
	return &Index{
		Version: indexVersion, Mode: 2, Seq: 1 << 33, Session: "tenant-7/shard 2",
		CreatedUnixNano: 1_700_000_000_000_000_000, SealedUnixNano: 1_700_000_060_000_000_000,
		Events: 300, FirstUnixNano: -5, LastUnixNano: math.MaxInt64 - 1,
		Verdicts: 5, VerdictOrdinals: []int64{0, 1, 130, 299}, VerdictsTruncated: true,
		DataStart: 40,
		Blocks: []BlockInfo{
			{Offset: 40, CompLen: 1000, RawLen: 4096, Events: 200, CRC: math.MaxUint32, FirstUnixNano: -5, LastUnixNano: 9},
			{Offset: 1040, CompLen: 1, RawLen: 100, Events: 100, CRC: 0, FirstUnixNano: 10, LastUnixNano: math.MaxInt64 - 1},
		},
	}
}

func TestGoldenIndex(t *testing.T) {
	if got := hex.EncodeToString(appendIndex(nil, goldenIndex())); got != goldenIndexHex {
		t.Fatalf("GOLDEN index %s", got)
	}
	raw, _ := hex.DecodeString(goldenIndexHex)
	idx, err := parseIndex(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx, goldenIndex()) {
		t.Fatalf("the index decodes to\n%+v, want\n%+v", idx, goldenIndex())
	}
}
