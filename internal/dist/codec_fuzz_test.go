package dist

import (
	"testing"

	"armus/internal/deps"
)

// FuzzSnapshotCodec feeds arbitrary bytes to the snapshot decoder. Two
// properties must hold on every input:
//
//  1. corrupt input never panics and never over-allocates — it returns an
//     error (the caller drops the snapshot and counts it), and
//  2. whatever decodes successfully re-encodes to a payload that decodes
//     to the same snapshot (encode∘decode is a fixpoint; byte equality is
//     NOT required because varints accept non-minimal forms on input).
//
// The seed corpus under testdata/fuzz/FuzzSnapshotCodec holds valid
// payloads of every shape the publisher produces plus the corrupt variants
// the unit tests enumerate; CI runs a short fuzz-smoke over it on every
// PR.
func FuzzSnapshotCodec(f *testing.F) {
	seeds := [][]deps.Blocked{
		nil,
		{{Task: 1}},
		{{
			Task:     deps.TaskID(3<<SiteIDShift + 7),
			WaitsFor: []deps.Resource{{Phaser: 3<<SiteIDShift + 1, Phase: 4}},
			Regs: []deps.Reg{
				{Phaser: 3<<SiteIDShift + 1, Phase: 4},
				{Phaser: 5<<SiteIDShift + 2, Phase: 0},
			},
		}},
		{{
			Task:     42,
			WaitsFor: []deps.Resource{{Phaser: -8, Phase: -1}},
			Regs:     []deps.Reg{{Phaser: 1, Phase: 1 << 40}},
		}, {Task: -1}},
	}
	for i, snap := range seeds {
		f.Add(encodeSnapshot(i, uint64(i)*99, snap))
	}
	good := encodeSnapshot(1, 1, seeds[2])
	f.Add(good[:len(good)-3])                   // truncated
	f.Add(append(append([]byte{}, good...), 0)) // trailing byte
	f.Add([]byte(snapshotMagic))                // header only
	f.Add([]byte("NOTARMUS-------"))
	f.Add(append([]byte(snapshotMagic), 1, 1, 0xff, 0xff, 0xff, 0xff, 0x7f)) // huge length

	// A longer, wider occupant for the reused buffers than most inputs.
	var long []deps.Blocked
	for i := 0; i < 12; i++ {
		long = append(long, seeds[2][0], seeds[3][0])
	}
	longPayload := encodeSnapshot(7, 7, long)

	f.Fuzz(func(t *testing.T, data []byte) {
		id, seq, snap, err := decodeSnapshot(data)
		// The decode the site runs: into buffers that held another snapshot.
		// It must agree with the fresh one on everything — nothing of the
		// previous occupant showing through, whether as a status or as the
		// tail of a slice — and fail where that fails.
		_, _, buf, lerr := decodeSnapshotInto(longPayload, nil)
		if lerr != nil {
			t.Fatal(lerr)
		}
		id3, seq3, snap3, err3 := decodeSnapshotInto(data, buf)
		if (err3 != nil) != (err != nil) {
			t.Fatalf("fresh decode: %v, decode into used buffers: %v", err, err3)
		}
		if err != nil {
			return // rejected: that is a fine outcome for arbitrary bytes
		}
		if id3 != id || seq3 != seq || !sameSnapshot(snap3, snap) {
			t.Fatalf("decode into used buffers: (%d,%d) %+v, fresh: (%d,%d) %+v", id3, seq3, snap3, id, seq, snap)
		}
		re := encodeSnapshot(id, seq, snap)
		id2, seq2, snap2, err := decodeSnapshot(re)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if id2 != id || seq2 != seq || len(snap2) != len(snap) {
			t.Fatalf("fixpoint broken: (%d,%d,%d statuses) -> (%d,%d,%d statuses)",
				id, seq, len(snap), id2, seq2, len(snap2))
		}
		for i := range snap {
			if snap2[i].Task != snap[i].Task ||
				!sliceEqual(snap2[i].WaitsFor, snap[i].WaitsFor) ||
				!sliceEqual(snap2[i].Regs, snap[i].Regs) {
				t.Fatalf("fixpoint broken at status %d: %+v vs %+v", i, snap[i], snap2[i])
			}
		}
	})
}

// FuzzDeltaCodec is FuzzSnapshotCodec for the cumulative-delta payloads:
// arbitrary bytes either decode to a delta that re-encodes to the same
// delta (encode∘decode fixpoint), or are rejected with an error — never a
// panic. Whatever decodes must also survive applyDelta against an
// arbitrary base slice carved from the same input, since a Reader applies
// any delta whose header names the base it holds.
func FuzzDeltaCodec(f *testing.F) {
	base := []deps.Blocked{
		{Task: 1},
		{
			Task:     deps.TaskID(2<<SiteIDShift + 5),
			WaitsFor: []deps.Resource{{Phaser: 2<<SiteIDShift + 1, Phase: 3}},
			Regs:     []deps.Reg{{Phaser: 2<<SiteIDShift + 1, Phase: 3}},
		},
	}
	f.Add(encodeDelta(1, 1, 2, nil, nil))
	f.Add(encodeDelta(2, 3, 9, []deps.TaskID{1, base[1].Task}, nil))
	f.Add(encodeDelta(3, 1, 2, []deps.TaskID{-4, 7}, base))
	good := encodeDelta(2, 3, 9, []deps.TaskID{1}, base)
	f.Add(good[:len(good)-2])                   // truncated
	f.Add(append(append([]byte{}, good...), 1)) // trailing byte
	f.Add([]byte(deltaMagic))                   // header only
	f.Add(encodeSnapshot(1, 1, base))           // wrong magic (a full snapshot)
	f.Add(append([]byte(deltaMagic), 1, 5, 2))  // seq <= baseSeq

	// A longer, wider occupant for the reused buffers than most inputs.
	var long []deps.Blocked
	var longRemoved []deps.TaskID
	for i := int64(0); i < 24; i++ {
		b := base[1]
		b.Task += deps.TaskID(i)
		long, longRemoved = append(long, b), append(longRemoved, deps.TaskID(i))
	}
	longPayload := encodeDelta(7, 1, 2, longRemoved, long)

	f.Fuzz(func(t *testing.T, data []byte) {
		id, baseSeq, seq, removed, upserts, err := decodeDelta(data)
		// As in FuzzSnapshotCodec: the decode into used buffers must be the
		// fresh decode.
		_, _, _, rbuf, ubuf, lerr := decodeDeltaInto(longPayload, nil, nil)
		if lerr != nil {
			t.Fatal(lerr)
		}
		id3, baseSeq3, seq3, removed3, upserts3, err3 := decodeDeltaInto(data, rbuf, ubuf)
		if (err3 != nil) != (err != nil) {
			t.Fatalf("fresh decode: %v, decode into used buffers: %v", err, err3)
		}
		// The same through the reader a site keeps per peer: the input as the
		// delta of a good base it names, read by a Reader that held a longer
		// view of other seqs, must amount to what a fresh Reader makes of
		// the pair — whether it is applied, falls back or is set aside.
		_, from, _, _ := peekDeltaSeqs(data)
		var rd Reader
		if v, _, _, _ := rd.Read(encodeSnapshot(7, from+1, long), encodeDelta(7, from+1, from+2, longRemoved[:1], long[:3])); len(v) != len(long) {
			t.Fatalf("the reader's first occupant: %d statuses, want %d", len(v), len(long))
		}
		goodBase := encodeSnapshot(2, from, base)
		view, moved, _, rerr := rd.Read(goodBase, data)
		var fr Reader
		fresh, _, _, ferr := fr.Read(goodBase, data)
		if !moved || (rerr != nil) != (ferr != nil) || !sameSnapshot(view, fresh) {
			t.Fatalf("used reader: %+v (moved %v, %v), fresh reader: %+v (%v)", view, moved, rerr, fresh, ferr)
		}
		if err != nil {
			return
		}
		if id3 != id || baseSeq3 != baseSeq || seq3 != seq || !sliceEqual(removed3, removed) || !sameSnapshot(upserts3, upserts) {
			t.Fatalf("decode into used buffers: (%d,%d,%d) -%v +%+v, fresh: (%d,%d,%d) -%v +%+v",
				id3, baseSeq3, seq3, removed3, upserts3, id, baseSeq, seq, removed, upserts)
		}
		if seq <= baseSeq {
			t.Fatalf("decoded delta with seq %d <= baseSeq %d", seq, baseSeq)
		}
		re := encodeDelta(id, baseSeq, seq, removed, upserts)
		id2, baseSeq2, seq2, removed2, upserts2, err := decodeDelta(re)
		if err != nil {
			t.Fatalf("re-encoded delta rejected: %v", err)
		}
		if id2 != id || baseSeq2 != baseSeq || seq2 != seq ||
			!sliceEqual(removed2, removed) || len(upserts2) != len(upserts) {
			t.Fatalf("fixpoint broken: (%d,%d,%d,%d removed,%d upserts) -> (%d,%d,%d,%d removed,%d upserts)",
				id, baseSeq, seq, len(removed), len(upserts),
				id2, baseSeq2, seq2, len(removed2), len(upserts2))
		}
		for i := range upserts {
			if upserts2[i].Task != upserts[i].Task ||
				!sliceEqual(upserts2[i].WaitsFor, upserts[i].WaitsFor) ||
				!sliceEqual(upserts2[i].Regs, upserts[i].Regs) {
				t.Fatalf("fixpoint broken at upsert %d: %+v vs %+v", i, upserts[i], upserts2[i])
			}
		}
		// Applying a decoded delta must never panic, and the result must
		// respect the removals and carry every upsert.
		out := applyDelta(nil, base, removed, upserts)
		for i := range out {
			for _, r := range removed {
				isUpsert := false
				for j := range upserts {
					if upserts[j].Task == r {
						isUpsert = true
					}
				}
				if out[i].Task == r && !isUpsert {
					t.Fatalf("removed task %d survived applyDelta", r)
				}
			}
		}
	})
}

// sameSnapshot reports whether two decodes hold the same statuses.
func sameSnapshot(a, b []deps.Blocked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !blockedEqual(&a[i], &b[i]) {
			return false
		}
	}
	return true
}
