package dist

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"armus/internal/store"
)

// lossyProxy forwards store connections and, while armed, loses every
// reply: it waits until the store has answered a request — so the request
// was applied — and closes the client's connection without relaying a byte.
type lossyProxy struct {
	ln    net.Listener
	armed atomic.Bool
	wg    sync.WaitGroup
}

func newLossyProxy(t *testing.T, upstream string) *lossyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &lossyProxy{ln: ln}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				down.Close()
				continue
			}
			p.wg.Add(2)
			go func() { // requests
				defer p.wg.Done()
				_, _ = io.Copy(up, down)
				up.Close()
			}()
			go func() { // replies
				defer p.wg.Done()
				defer down.Close()
				defer up.Close()
				buf := make([]byte, 4096)
				for {
					n, err := up.Read(buf)
					if err != nil || p.armed.Load() {
						return
					}
					if _, err := down.Write(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.wg.Wait()
	})
	return p
}

// TestSeqNotReusedAfterLostAck: a publish whose acknowledgement is lost may
// have reached the store, and a peer may have fetched it. The publisher's
// next link must not carry other content under that link's seq, or the
// peer's seq-gated reader takes it for the view it already holds and keeps
// statuses the publisher no longer has. Site A publishes through a proxy
// that loses replies; site B reads the store directly.
func TestSeqNotReusedAfterLostAck(t *testing.T) {
	srv, err := store.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	proxy := newLossyProxy(t, srv.Addr())
	a := NewSite(1, proxy.ln.Addr().String())
	t.Cleanup(a.Close)
	b := NewSite(2, srv.Addr())
	t.Cleanup(b.Close)
	ast, bst := a.Verifier().State(), b.Verifier().State()

	if _, err := a.RoundOnce(); err != nil { // the base, acknowledged
		t.Fatal(err)
	}

	// First mutation: A's task 1 lags site 2's phaser. The round's writes
	// are applied, twice (the client retries once), and never acknowledged.
	first := blockedOn(1, 1, 2)
	ast.SetBlocked(first)
	proxy.armed.Store(true)
	if _, err := a.RoundOnce(); err == nil {
		t.Fatal("round through a proxy that loses every reply succeeded")
	}
	proxy.armed.Store(false)

	// B fetches the write A never saw acknowledged: its own task closes a
	// ring with it.
	closesFirst := blockedOn(2, 1, 1)
	bst.SetBlocked(closesFirst)
	if rep, err := b.CheckOnce(); err != nil || rep == nil {
		t.Fatalf("the unacknowledged write did not reach the store: report %v, error %v", rep, err)
	}

	// Second mutation, to a different status set: task 1 resumed, task 2
	// lags site 3's phaser.
	ast.Clear(first.Task)
	ast.SetBlocked(blockedOn(1, 2, 3))
	if _, err := a.RoundOnce(); err != nil {
		t.Fatal(err)
	}

	// B must now hold exactly A's live statuses: the ring only the first
	// mutation closed is gone, and one only the second closes is there.
	if rep, err := b.CheckOnce(); err != nil || rep != nil {
		t.Fatalf("B still holds the status A withdrew: report %v, error %v", rep, err)
	}
	bst.Clear(closesFirst.Task)
	bst.SetBlocked(blockedOn(3, 1, 1))
	if rep, err := b.CheckOnce(); err != nil || rep == nil {
		t.Fatalf("B does not hold the status A published last: report %v, error %v", rep, err)
	}
	if st := b.Stats(); st.DeltaFallbacks != 0 || st.SnapshotsDropped != 0 {
		t.Fatalf("B set fields aside on the way: %+v", st)
	}
	// What A did about the lost acknowledgement: one failed publish, then a
	// base numbered above the link that may have landed.
	if st := a.Stats(); st.PublishErrors != 1 || st.FullSnapshots != 2 || st.DeltaSnapshots != 0 {
		t.Fatalf("A's publishes: %+v, want one error followed by a second base", st)
	}
}
