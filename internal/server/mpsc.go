package server

import (
	"sync/atomic"

	"armus/internal/trace"
)

// batch is one decoded chunk of a connection's event stream — the unit of
// work a read loop hands to its session's executor. Nodes are intrusive
// (next is the queue link) and cycle through the owning connection's free
// ring: read loop decodes into a free batch, executor processes it and
// recycles it, so the steady-state ingest path allocates nothing.
type batch struct {
	c      *conn
	events []trace.Event // backing array, len == maxBatch
	n      int           // events[:n] are valid
	next   atomic.Pointer[batch]

	// Stage-timing stamps (internal/obs Nanotime): decNs is taken by the
	// read loop right after the batch is decoded, enqNs by enqueue right
	// before the push. The executor's queue-wait observation prefers decNs
	// (it includes the tee and the enqueue itself) and falls back to enqNs
	// for batches injected without a read loop (tests, drains).
	decNs int64
	enqNs int64
}

// mpsc is an intrusive Vyukov-style multi-producer single-consumer queue
// of batches: producers push with one atomic swap plus one store, the
// consumer pops without any atomic read-modify-write. depth is maintained
// by the producers BEFORE the node becomes visible, which is what makes
// the executor's park protocol lose no wakeups (see session.enqueue): a
// consumer that observes depth == 0 after publishing its parked state is
// guaranteed that any concurrent producer will observe the parked state
// and signal.
//
// pop only returns a node once the consumer cursor has advanced past it,
// so a returned batch is fully detached and may be recycled (re-pushed,
// even to a different mpsc) immediately.
type mpsc struct {
	head  atomic.Pointer[batch] // most recently pushed node
	tail  *batch                // consumer cursor (single consumer)
	stub  batch
	depth atomic.Int64 // pushed minus popped; also the queue-depth gauge
}

func (q *mpsc) init() {
	q.head.Store(&q.stub)
	q.tail = &q.stub
}

// push enqueues b. Safe for any number of concurrent producers.
func (q *mpsc) push(b *batch) {
	q.depth.Add(1)
	q.pushNode(b)
}

func (q *mpsc) pushNode(b *batch) {
	b.next.Store(nil)
	prev := q.head.Swap(b)
	// The queue is momentarily unlinked between the swap and this store;
	// pop observes that window as empty and the caller re-polls on depth.
	prev.next.Store(b)
}

// pop dequeues the oldest batch, or nil when the queue is empty — or when
// a producer is mid-push, which the caller distinguishes by depth being
// nonzero (re-poll; the missing link is one store away). Single consumer
// only.
func (q *mpsc) pop() *batch {
	tail := q.tail
	next := tail.next.Load()
	if tail == &q.stub {
		if next == nil {
			return nil
		}
		q.tail = next
		tail = next
		next = tail.next.Load()
	}
	if next != nil {
		q.tail = next
		q.depth.Add(-1)
		return tail
	}
	// tail is the last linked node. If head has moved on, a producer is
	// mid-push behind it; otherwise re-insert the stub so tail can be
	// detached (its next link must not be live when it is recycled).
	if q.head.Load() != tail {
		return nil
	}
	q.pushNode(&q.stub)
	if next = tail.next.Load(); next != nil {
		q.tail = next
		q.depth.Add(-1)
		return tail
	}
	return nil
}
