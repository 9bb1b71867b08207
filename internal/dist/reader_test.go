package dist

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"armus/internal/deps"
)

// chainFields is one stored chain as some writer — whole, careless or
// damaged — leaves it, for the reader differential.
type chainFields struct {
	rng         *rand.Rand
	seq         uint64         // last number written; every write takes a new one
	baseSeq     uint64         // of the stored base, when that is whole
	baseContent []deps.Blocked // nil when the stored base is not whole
	base, delta []byte
}

// content draws a sorted status set over a few tasks and phasers.
func (f *chainFields) content() []deps.Blocked {
	out := []deps.Blocked{}
	for tk := int64(1); tk <= 9; tk++ {
		if f.rng.Intn(3) == 0 {
			continue
		}
		b := deps.Blocked{Task: deps.TaskID(tk)}
		for q := int64(1); q <= int64(f.rng.Intn(4)); q++ {
			b.WaitsFor = append(b.WaitsFor, deps.Resource{Phaser: deps.PhaserID(q), Phase: int64(f.rng.Intn(3))})
			b.Regs = append(b.Regs, deps.Reg{Phaser: deps.PhaserID(q + tk), Phase: int64(f.rng.Intn(3))})
		}
		out = append(out, b)
	}
	return out
}

func (f *chainFields) writeBase(content []deps.Blocked) {
	f.seq++
	f.baseSeq, f.baseContent = f.seq, content
	f.base = encodeSnapshot(1, f.seq, content)
}

// damaged returns payload cut short of its last bytes or with one bit of
// its body flipped; the header, headerVarints varints after the magic,
// stays as it is (a reader gates on the seqs in it, and every write here
// takes a new one).
func (f *chainFields) damaged(payload []byte, headerVarints int) []byte {
	body := len(snapshotMagic) // the two magics are of one length
	for i := 0; i < headerVarints; i++ {
		_, n := binary.Uvarint(payload[body:])
		body += n
	}
	out := slices.Clone(payload)
	if f.rng.Intn(2) == 0 || body == len(out) {
		return out[:len(out)-1-f.rng.Intn(min(3, len(out)-body))]
	}
	out[body+f.rng.Intn(len(out)-body)] ^= 1 << f.rng.Intn(8)
	return out
}

func (f *chainFields) step() {
	switch op := f.rng.Intn(16); {
	case op < 6: // a new delta on the stored base, if that is whole
		if f.baseContent == nil {
			f.writeBase(f.content())
			return
		}
		f.seq++
		removed, upserts := diffSnapshots(f.baseContent, f.content(), nil, nil)
		f.delta = encodeDelta(1, f.baseSeq, f.seq, removed, upserts)
	case op < 8: // a re-base, the old delta left beside it or cleared
		f.writeBase(f.content())
		if f.rng.Intn(2) == 0 {
			f.delta = nil
		}
	case op < 9: // a base written by another program: out of order, a task twice
		content := f.content()
		wire := append(slices.Clone(content), content[:len(content)/2]...)
		f.rng.Shuffle(len(wire), func(i, j int) { wire[i], wire[j] = wire[j], wire[i] })
		f.seq++
		f.baseSeq, f.baseContent, f.base = f.seq, nil, encodeSnapshot(1, f.seq, wire)
	case op < 10: // a delta naming an older base, or one yet to come
		f.seq += 2
		removed, upserts := diffSnapshots(nil, f.content(), nil, nil)
		f.delta = encodeDelta(1, f.seq-1-uint64(f.rng.Intn(2))*f.baseSeq, f.seq, removed, upserts)
	case op < 12: // a damaged delta
		f.seq++
		removed, upserts := diffSnapshots(f.baseContent, f.content(), nil, nil)
		f.delta = f.damaged(encodeDelta(1, f.baseSeq, f.seq, removed, upserts), 3)
	case op < 13: // a delta that is none
		f.delta = []byte("not a delta")
	case op < 15: // a damaged base, or one that is none
		f.seq++
		f.base, f.baseContent = f.damaged(encodeSnapshot(1, f.seq, f.content()), 2), nil
		if f.rng.Intn(4) == 0 {
			f.base = []byte("not a snapshot")
		}
	default: // the delta field removed
		f.delta = nil
	}
}

// TestReaderAgainstFreshDecode is the differential for the one reader: a
// long-lived Reader, as a site holds per peer, is fed the same fields at
// every step as a DecodeChain on fresh memory, as a rehydrating server runs
// once. Whenever the base decodes the two must return the same view — the
// seq-gated cache, the reused buffers and the spare-and-swap rule change
// nothing a reader can see — and when it does not the long-lived reader must
// keep the view it had, untouched. Outcome and Last are held against what
// the codec says of each field on its own.
func TestReaderAgainstFreshDecode(t *testing.T) {
	steps := 12000
	if testing.Short() {
		steps = 3000
	}
	for seed := int64(1); seed <= 2; seed++ {
		f := &chainFields{rng: rand.New(rand.NewSource(seed))}
		f.writeBase(f.content())
		var rd Reader
		var prev []deps.Blocked // deep copy of what rd returned last
		var last uint64
		seen := map[string]int{}
		for step := 0; step < steps; step++ {
			f.step()
			view, moved, out, err := rd.Read(f.base, f.delta)
			fresh, freshLast, freshErr := DecodeChain(f.base, f.delta)

			// What the codec says of each field on its own.
			_, bseq, _, berr := decodeSnapshot(f.base)
			var stepLast, dFrom uint64
			if _, s, err := peekSnapshotSeq(f.base); err == nil {
				stepLast = s
			}
			var derr error // of a delta that is looked into: one whose header is bad, or names this base
			if f.delta != nil {
				_, from, to, err := peekDeltaSeqs(f.delta)
				if err == nil {
					stepLast, dFrom = max(stepLast, to), from
				}
				if err != nil || from == bseq {
					_, _, _, _, _, derr = decodeDelta(f.delta)
				}
			}
			if last = max(last, stepLast); rd.Last() != last || freshLast != stepLast {
				t.Fatalf("seed %d step %d: Last() = %d, DecodeChain's last %d; highest header seq ever %d, now %d",
					seed, step, rd.Last(), freshLast, last, stepLast)
			}

			if berr != nil {
				seen["base dropped"]++
				if out != BaseDropped || moved || err == nil || !sameSnapshot(view, prev) {
					t.Fatalf("seed %d step %d: corrupt base: outcome %v moved %v err %v, view %+v, had %+v", seed, step, out, moved, err, view, prev)
				}
				if fresh != nil || freshErr == nil {
					t.Fatalf("seed %d step %d: DecodeChain of a corrupt base = %+v, %v", seed, step, fresh, freshErr)
				}
				continue
			}
			if !sameSnapshot(view, fresh) {
				t.Fatalf("seed %d step %d: long-lived reader holds %+v, fresh decode %+v", seed, step, view, fresh)
			}
			if (err != nil) != (freshErr != nil) {
				t.Fatalf("seed %d step %d: long-lived reader: %v, fresh decode: %v", seed, step, err, freshErr)
			}
			for i := 1; i < len(view); i++ {
				if view[i-1].Task >= view[i].Task {
					t.Fatalf("seed %d step %d: view not sorted by task: %+v", seed, step, view)
				}
			}
			if !moved && !sameSnapshot(view, prev) {
				t.Fatalf("seed %d step %d: view went from %+v to %+v unannounced", seed, step, prev, view)
			}
			fellBack := f.delta != nil && (derr != nil || dFrom != bseq)
			if fellBack != (out == DeltaFellBack) || (derr != nil) != (err != nil) {
				t.Fatalf("seed %d step %d: outcome %v, error %v; delta decodes: %v, names base %d of %d", seed, step, out, err, derr, dFrom, bseq)
			}
			switch {
			case fellBack && derr != nil:
				seen["corrupt delta"]++
			case fellBack:
				seen["stale delta"]++
			case f.delta != nil:
				seen["delta applied"]++
			default:
				seen["base alone"]++
			}
			if !moved {
				seen["unchanged"]++
			}
			// Whole fields written by one writer amount to what it meant.
			if f.baseContent != nil && f.delta == nil && !sameSnapshot(view, f.baseContent) {
				t.Fatalf("seed %d step %d: view %+v, the base holds %+v", seed, step, view, f.baseContent)
			}
			prev = copySnapshot(prev, view)
		}
		t.Logf("seed %d: %v", seed, seen)
		for _, k := range []string{"base dropped", "corrupt delta", "stale delta", "delta applied", "base alone", "unchanged"} {
			if seen[k] < steps/100 {
				t.Fatalf("seed %d: case %q reached %d times in %d steps", seed, k, seen[k], steps)
			}
		}
	}
}
