package dist

import (
	"cmp"
	"fmt"
	"slices"

	"armus/internal/deps"
)

// One snapshot chain, one writer and one reader. A chain is two store
// fields: "base", a full ARMUSD1 snapshot of a blocked-status set, and
// "delta", the latest cumulative ARMUSI1 delta against that base, each
// stamped with a sequence number. The chain serves sites only (§5.2): a
// dist.Site publishes its statuses through a Chain every period and reads
// each peer through a Reader, whose seq-gated cache makes an unchanged peer
// cost two header peeks. Which link comes next, under which number, and
// which stored pair may be merged are decided here and nowhere else; the
// Site keeps the store commands and the counters. A server session
// persists whole snapshots (EncodeSnapshot/DecodeSnapshot) instead: it
// writes one every SnapshotEvery batches, when most statuses have changed,
// and is read once, on failover.

// EncodeSnapshot encodes a full blocked-status snapshot (ARMUSD1). snap
// must be sorted by Task (deps.State.SnapshotInto output is).
func EncodeSnapshot(siteID int, seq uint64, snap []deps.Blocked) []byte {
	return encodeSnapshot(siteID, seq, snap)
}

// AppendSnapshot appends EncodeSnapshot's encoding to buf, for a writer
// that reuses its buffer.
func AppendSnapshot(buf []byte, siteID int, seq uint64, snap []deps.Blocked) []byte {
	return appendSnapshot(buf, siteID, seq, snap)
}

// DecodeSnapshot decodes an ARMUSD1 payload.
func DecodeSnapshot(payload []byte) (siteID int, seq uint64, snap []deps.Blocked, err error) {
	return decodeSnapshot(payload)
}

// Chain is the writer of one stored chain. Owned by one goroutine.
type Chain struct {
	site      int // stamped into the headers
	fullEvery int
	seq       uint64 // last number handed out, never handed out again
	baseSeq   uint64 // seq of the retained base; 0 forces the next link to be a base
	deltas    int    // links since that base
	ver       uint64 // state version the last link's snapshot is of
	// cur and base alternate as the SnapshotInto buffer (it reuses the inner
	// slices, so the retained base must be a distinct buffer).
	cur, base []deps.Blocked
	removed   []deps.TaskID
	upserts   []deps.Blocked
}

// NewChain returns a writer that stamps site into its headers and lets
// fullEvery deltas ride one base. Numbering continues above after, so no
// link of this writer can be paired with a field an earlier writer left
// behind.
func NewChain(site, fullEvery int, after uint64) *Chain {
	return &Chain{site: site, fullEvery: fullEvery, seq: after}
}

// Next appends the next link from st to buf: the field to store it under
// ("base" or "delta") and the extended buffer — pass nil to own the result,
// a reused buffer to allocate nothing. The link is a base when none is
// retained (the first link, or after Rebase), when fullEvery deltas rode the
// retained one, or when the delta would be larger than the full set. It
// returns "" and buf as it was when the state has not changed since the
// last link. Every link takes a new seq whether or not it reaches the
// store: a reader that met a link must never meet other content under its
// number.
func (c *Chain) Next(st *deps.State, buf []byte) (field string, payload []byte) {
	v := st.Version()
	if c.baseSeq != 0 && v == c.ver {
		return "", buf
	}
	c.ver = v
	c.seq++
	c.cur = st.SnapshotInto(c.cur)
	if c.baseSeq != 0 && c.deltas < c.fullEvery {
		c.removed, c.upserts = diffSnapshots(c.base, c.cur, c.removed[:0], c.upserts[:0])
		if len(c.removed)+len(c.upserts) <= len(c.cur) {
			c.deltas++
			return "delta", appendDelta(buf, c.site, c.baseSeq, c.seq, c.removed, c.upserts)
		}
	}
	c.baseSeq, c.deltas = c.seq, 0
	// The buffer just snapshotted into becomes the retained base; the old
	// base becomes the next snapshot's scratch.
	c.base, c.cur = c.cur, c.base
	return "base", appendSnapshot(buf, c.site, c.seq, c.base)
}

// Rebase makes the next link a full base even if the state does not change
// again. Call it when a link did not reach the store, or may not have: a
// lost delta only leaves the store stale (deltas are cumulative), but a lost
// base would orphan every later delta, and a link whose acknowledgement was
// lost may be there under its number — either way one fresh base, numbered
// above all of them, re-converges.
func (c *Chain) Rebase() { c.baseSeq = 0 }

// Seqs returns the seqs of the last link: what the store holds when that
// link reached it (base == seq when it was a base, which leaves no live
// delta). Meaningless after Rebase until the next link.
func (c *Chain) Seqs() (base, seq uint64) { return c.baseSeq, c.seq }

// Snapshot returns the snapshot the last link was made from, sorted by
// task, and the state version it is of. It is lent: the next Next overwrites
// it, so the caller must be done with it — or have copied it — before then.
func (c *Chain) Snapshot() (snap []deps.Blocked, ver uint64) {
	if c.deltas == 0 {
		return c.base, c.ver
	}
	return c.cur, c.ver
}

// ReadOutcome is what a Reader did with the fields beyond taking them as
// they are, for its caller to count.
type ReadOutcome uint8

const (
	ReadClean     ReadOutcome = iota // nothing set aside
	BaseDropped                      // base without a good header or body: both fields set aside, the last good view kept
	DeltaFellBack                    // delta corrupt, or naming another base: the base alone is the view
)

// Reader is the reader of one stored chain, caching what it decoded by seq:
// fields it has seen cost two header peeks, a new delta on the same base is
// decoded and applied over the cached base, a new base is decoded in full.
// Every decode reuses the reader's own buffers, so a warm one allocates
// nothing. The zero value is ready. Owned by one goroutine.
type Reader struct {
	ok      bool   // a base was decoded; view is of viewSeq
	baseSeq uint64 // seq of the decoded base
	viewSeq uint64 // baseSeq, or the seq of the delta applied over it
	last    uint64
	view    []deps.Blocked // base or patched
	base    []deps.Blocked
	spare   []deps.Blocked // the next base decodes here and is swapped in on success
	removed []deps.TaskID
	upserts []deps.Blocked
	patched []deps.Blocked // base + delta; aliases both
}

// Last returns the highest seq of every header Read could read, intact
// body or not: the number a new writer of this chain must start above.
func (r *Reader) Last() uint64 { return r.last }

// Read takes the two fields of a chain as fetched (delta nil when absent)
// and returns the view they amount to, sorted by task, whether it differs
// from what the previous Read returned, and what had to be set aside. The
// view is the reader's own memory, valid until the next Read and read-only.
// The delta is applied only when it names this base; one left by an earlier
// base, or raced by a base rewrite, is set aside — the base alone is a
// coherent, just older, view — and so is a corrupt one, with the error. A
// corrupt base sets aside both fields: the view stays what it was (nil on
// a new reader), with the error.
func (r *Reader) Read(base, delta []byte) (view []deps.Blocked, moved bool, out ReadOutcome, err error) {
	// Both headers before anything is decoded: a seq that was stored counts
	// for Last even when the field beside it is damaged.
	var dFrom, dTo uint64
	var derr error
	if delta != nil {
		if _, dFrom, dTo, derr = peekDeltaSeqs(delta); derr == nil {
			r.last = max(r.last, dTo)
		}
	}
	_, bseq, berr := peekSnapshotSeq(base)
	if berr != nil {
		return r.view, false, BaseDropped, fmt.Errorf("corrupt base snapshot: %w", berr)
	}
	r.last = max(r.last, bseq)
	target, haveDelta := bseq, false
	if delta != nil {
		if derr == nil && dFrom == bseq {
			target, haveDelta = dTo, true
		} else {
			out = DeltaFellBack
			if derr != nil {
				err = fmt.Errorf("corrupt delta snapshot (using base alone): %w", derr)
			}
		}
	}
	if r.ok && r.baseSeq == bseq && r.viewSeq == target {
		return r.view, false, out, err // seen: no decode
	}
	if !r.ok || r.baseSeq != bseq {
		// Into the spare, so that the last good view survives a base whose
		// body does not decode.
		if _, _, r.spare, berr = decodeSnapshotInto(base, r.spare); berr != nil {
			return r.view, false, BaseDropped, fmt.Errorf("corrupt base snapshot: %w", berr)
		}
		r.base, r.spare = sortedByTask(r.spare), r.base
		r.ok, r.baseSeq = true, bseq
		r.view, r.viewSeq, moved = r.base, bseq, true
	}
	if haveDelta && r.viewSeq != target {
		// The view may alias the buffers this decode overwrites; either
		// branch below replaces it.
		if _, _, _, r.removed, r.upserts, derr = decodeDeltaInto(delta, r.removed, r.upserts); derr == nil {
			r.patched = applyDelta(r.patched[:0], r.base, r.removed, r.upserts)
			r.view, r.viewSeq, moved = r.patched, target, true
			return r.view, moved, out, err
		}
		// A body that does not decode under a header that did: the writer's
		// next link heals the field.
		out, err = DeltaFellBack, fmt.Errorf("corrupt delta snapshot (using base alone): %w", derr)
	}
	if r.viewSeq != bseq {
		// The delta went away (the writer re-based) or went bad.
		r.view, r.viewSeq, moved = r.base, bseq, true
	}
	return r.view, moved, out, err
}

func byTask(a, b deps.Blocked) int { return cmp.Compare(a.Task, b.Task) }

// sortedByTask returns snap strictly ascending by task, which the encoder
// guarantees and the decoder does not check: a base some other program
// wrote is put in order here (the first status of a task wins), because
// diffSnapshots and applyDelta merge by task.
func sortedByTask(snap []deps.Blocked) []deps.Blocked {
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Task >= snap[i].Task {
			slices.SortStableFunc(snap, byTask)
			return slices.CompactFunc(snap, func(a, b deps.Blocked) bool { return a.Task == b.Task })
		}
	}
	return snap
}
