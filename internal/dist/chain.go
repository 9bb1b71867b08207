package dist

import (
	"fmt"

	"armus/internal/deps"
)

// Exported codec surface: the ARMUSD1 full-snapshot and ARMUSI1 cumulative
// delta encodings were built for site-to-site publication (§5.2), but they
// encode exactly what a session snapshot IS — a blocked-status set plus a
// sequence number — so the fleet failover path (internal/server persisting
// per-session snapshots into the store, a replacement server rehydrating
// them) writes and reads them through the Chain below.

// EncodeSnapshot encodes a full blocked-status snapshot (ARMUSD1). snap
// must be sorted by Task (deps.State.SnapshotInto output is).
func EncodeSnapshot(siteID int, seq uint64, snap []deps.Blocked) []byte {
	return encodeSnapshot(siteID, seq, snap)
}

// DecodeSnapshot decodes an ARMUSD1 payload.
func DecodeSnapshot(payload []byte) (siteID int, seq uint64, snap []deps.Blocked, err error) {
	return decodeSnapshot(payload)
}

// Chain is the writer of one stored snapshot chain: a "base" field holding
// a full snapshot and a "delta" field holding the latest cumulative delta
// against it, each stamped with a sequence number. DecodeChain is its
// reader. Owned by one goroutine.
type Chain struct {
	fullEvery int
	seq       uint64 // last number handed out
	baseSeq   uint64 // seq of the retained base; 0 forces the next link to be a base
	sinceBase int
	lastVer   uint64 // state version of the last link
	// cur and base alternate as the SnapshotInto buffer (it reuses the inner
	// slices, so the retained base must be a distinct buffer).
	cur, base []deps.Blocked
	removed   []deps.TaskID
	upserts   []deps.Blocked
}

// NewChain returns a writer whose every fullEvery-th link is a full base.
// Numbering continues above after — the highest seq DecodeChain found in
// the store, 0 for a new chain — so no link of this writer can be paired
// with a field an earlier writer left behind.
func NewChain(fullEvery int, after uint64) *Chain {
	return &Chain{fullEvery: fullEvery, seq: after}
}

// Next encodes the next link from st: the field to store it under ("base"
// or "delta") and its payload, which the caller owns. It returns "" when
// the state has not changed since the last link.
func (c *Chain) Next(st *deps.State) (field string, payload []byte) {
	v := st.Version()
	if c.baseSeq != 0 && v == c.lastVer {
		return "", nil
	}
	c.lastVer = v
	c.seq++
	c.cur = st.SnapshotInto(c.cur)
	if c.baseSeq == 0 || c.sinceBase >= c.fullEvery {
		c.baseSeq, c.sinceBase = c.seq, 1
		// The buffer just snapshotted into becomes the retained base; the
		// old base becomes the next snapshot's scratch.
		c.base, c.cur = c.cur, c.base
		return "base", encodeSnapshot(0, c.seq, c.base)
	}
	c.sinceBase++
	c.removed, c.upserts = diffSnapshots(c.base, c.cur, c.removed[:0], c.upserts[:0])
	return "delta", encodeDelta(0, c.baseSeq, c.seq, c.removed, c.upserts)
}

// Rebase makes the next link a full base even if the state does not change
// again. Call it when a link did not reach the store: a lost delta only
// leaves the store stale (deltas are cumulative), but a lost base would
// orphan every later delta — either way one fresh base re-converges.
func (c *Chain) Rebase() { c.baseSeq = 0 }

// DecodeChain reads the fields a Chain wrote (delta may be nil): the
// statuses, and the highest seq found, for the next writer's NewChain. The
// delta is applied only when it names this base and is newer; one left by
// an earlier base, or raced by a base rewrite, is ignored — the base alone
// is a coherent, just older, snapshot. On a corrupt base the result is
// (nil, 0, err); on a corrupt delta it is the base alone with the error.
func DecodeChain(base, delta []byte) (snap []deps.Blocked, last uint64, err error) {
	_, last, snap, err = decodeSnapshot(base)
	if err != nil {
		return nil, 0, fmt.Errorf("corrupt base snapshot: %w", err)
	}
	if delta == nil {
		return snap, last, nil
	}
	_, dBase, dSeq, removed, upserts, err := decodeDelta(delta)
	if err != nil {
		return snap, last, fmt.Errorf("corrupt delta snapshot (using base alone): %w", err)
	}
	if dBase == last && dSeq > last {
		snap = applyDelta(nil, snap, removed, upserts)
	}
	return snap, max(last, dSeq), nil
}
