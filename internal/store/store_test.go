package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(srv.Addr())
	t.Cleanup(func() { c.Close(); srv.Close() })
	return srv, c
}

// command sends a command by its words through the client's do: the tests'
// route to the commands the client has no method for (KEYS, HGETALL, HDEL).
func command(c *Client, args ...string) (Reply, error) {
	return c.do(args[0], len(args), func(b []byte) []byte {
		for _, a := range args[1:] {
			b = appendBulk(b, a)
		}
		return b
	})
}

// keys lists the keys under prefix with KEYS.
func keys(c *Client, prefix string) ([]string, error) {
	rep, err := command(c, "KEYS", prefix)
	out := make([]string, len(rep.Array))
	for i, b := range rep.Array {
		out[i] = string(b)
	}
	return out, err
}

func TestPing(t *testing.T) {
	_, c := newPair(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestSetGetDel(t *testing.T) {
	_, c := newPair(t)
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	n, err := c.Del("k", "absent")
	if err != nil || n != 1 {
		t.Fatalf("Del = %d, %v", n, err)
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrNil) {
		t.Fatalf("Get deleted key: %v", err)
	}
}

func TestBinarySafeValues(t *testing.T) {
	_, c := newPair(t)
	payload := []byte{0, 1, 2, '\r', '\n', 0xff, '$', '*', 0}
	if err := c.Set("bin", payload); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("bin")
	if err != nil || !bytes.Equal(v, payload) {
		t.Fatalf("binary round trip failed: %v %v", v, err)
	}
}

func TestEmptyValue(t *testing.T) {
	_, c := newPair(t)
	if err := c.Set("e", nil); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("e")
	if err != nil || len(v) != 0 {
		t.Fatalf("empty value round trip: %q %v", v, err)
	}
}

func TestKeysPrefix(t *testing.T) {
	_, c := newPair(t)
	for _, k := range []string{"armus:site:1", "armus:site:2", "other"} {
		if err := c.Set(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got, err := keys(c, "armus:site:")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "armus:site:1" || got[1] != "armus:site:2" {
		t.Fatalf("Keys = %v", got)
	}
	all, err := keys(c, "")
	if err != nil || len(all) != 3 {
		t.Fatalf("Keys(\"\") = %v, %v", all, err)
	}
}

func TestHashOps(t *testing.T) {
	_, c := newPair(t)
	if err := c.HSet("h", "f1", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := c.HSet("h", "f2", []byte("b")); err != nil {
		t.Fatal(err)
	}
	v, err := c.HGet("h", "f1")
	if err != nil || string(v) != "a" {
		t.Fatalf("HGet = %q, %v", v, err)
	}
	if _, err := c.HGet("h", "absent"); !errors.Is(err, ErrNil) {
		t.Fatalf("HGet absent: %v", err)
	}
	all, err := command(c, "HGETALL", "h")
	if err != nil || len(all.Array) != 4 || string(all.Array[2]) != "f2" || string(all.Array[3]) != "b" {
		t.Fatalf("HGETALL = %q, %v", all.Array, err)
	}
	if rep, err := command(c, "HDEL", "h", "f1"); err != nil || rep.N != 1 {
		t.Fatalf("HDEL = %d, %v", rep.N, err)
	}
	if rep, err := command(c, "HDEL", "h", "f1"); err != nil || rep.N != 0 {
		t.Fatalf("HDEL again = %d, %v", rep.N, err)
	}
	// DEL removes whole hashes too.
	if n, err := c.Del("h"); err != nil || n != 1 {
		t.Fatalf("Del hash = %d, %v", n, err)
	}
	// A hash goes with its last field: no key is left behind.
	if err := c.HSet("g", "only", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if rep, err := command(c, "HDEL", "g", "only"); err != nil || rep.N != 1 {
		t.Fatalf("HDEL last field = %d, %v", rep.N, err)
	}
	if got, err := keys(c, ""); err != nil || len(got) != 0 {
		t.Fatalf("Keys after HDEL of the last field = %q, %v", got, err)
	}
	if n, err := c.Del("g"); err != nil || n != 0 {
		t.Fatalf("Del of a hash emptied by HDel = %d, %v", n, err)
	}
}

func TestServerErrorReply(t *testing.T) {
	_, c := newPair(t)
	_, err := c.do("BOGUS", 1, nil)
	if !errors.Is(err, ErrServerError) {
		t.Fatalf("bogus command: %v", err)
	}
	// The connection must survive a server error.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after error: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := newPair(t)
	const N = 8
	var wg sync.WaitGroup
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := Dial(srv.Addr())
			defer c.Close()
			for j := 0; j < 50; j++ {
				k := fmt.Sprintf("k%d", i)
				if err := c.Set(k, []byte(fmt.Sprintf("%d", j))); err != nil {
					errs <- err
					return
				}
				if _, err := c.Get(k); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClientReconnects is the fault-tolerance property of §5.2: the client
// survives a server restart (the restarted store is empty, which the
// detection algorithm tolerates — the next publish repopulates it).
func TestClientReconnects(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	c := Dial(addr)
	defer c.Close()
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Server down: commands fail but do not wedge the client.
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded against a dead server")
	}
	// Restart on the same address.
	srv2, err := NewServer(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("client did not reconnect: %v", err)
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrNil) {
		t.Fatalf("restarted store should be empty: %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close()
}

func TestLargeValue(t *testing.T) {
	_, c := newPair(t)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := c.Set("big", big); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("big")
	if err != nil || !bytes.Equal(v, big) {
		t.Fatalf("large value corrupted (len=%d, err=%v)", len(v), err)
	}
}

func BenchmarkSetGet(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := Dial(srv.Addr())
	defer c.Close()
	payload := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Set("bench", payload); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Get("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClientConcurrentReconnect hammers one SHARED client from several
// goroutines through a server kill + rebind: commands racing the restart
// may fail (counted), in-flight commands see their connection die
// mid-command, and afterwards every worker must complete a run of clean
// commands on the same client instance. Run with -race: the client's
// single-connection locking is the property under test.
func TestClientConcurrentReconnect(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	c := Dial(addr)
	defer c.Close()

	const workers = 8
	var phase atomic.Int64 // 0: healthy, 1: outage+restart window, 2: recovered
	var healthyOps [workers]atomic.Int64
	var recoveredAt [workers]atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			for n := int64(0); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				val := []byte(fmt.Sprintf("v%d", n))
				err := c.Set(key, val)
				if err == nil {
					got, gerr := c.Get(key)
					if gerr == nil && string(got) != string(val) {
						t.Errorf("worker %d read %q, wrote %q", i, got, val)
						return
					}
					err = gerr
				}
				switch p := phase.Load(); {
				case err == nil && p == 0:
					healthyOps[i].Add(1)
				case err != nil && p == 0:
					t.Errorf("worker %d failed against a healthy server: %v", i, err)
					return
				case err != nil:
					// Outage window: failures are expected and legal.
				case err == nil && p == 2 && recoveredAt[i].Load() == 0:
					recoveredAt[i].Store(n)
				}
			}
		}()
	}
	waitAll := func(what string, cond func(i int) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for i := 0; i < workers; i++ {
			for !cond(i) {
				if time.Now().After(deadline) {
					close(stop)
					wg.Wait()
					t.Fatalf("timed out waiting for %s (worker %d)", what, i)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	// Phase 0: every worker completes clean commands on the shared client.
	waitAll("healthy traffic", func(i int) bool { return healthyOps[i].Load() >= 20 })
	// Phase 1: kill the server mid-traffic (in-flight commands lose their
	// connection), then rebind the same address.
	phase.Store(1)
	srv.Close()
	srv2, err := NewServer(addr)
	if err != nil {
		close(stop)
		wg.Wait()
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	// Phase 2: every worker must complete clean commands again, on the
	// same client, without any reset.
	phase.Store(2)
	waitAll("recovery", func(i int) bool { return recoveredAt[i].Load() > 0 })
	close(stop)
	wg.Wait()
}

func TestMGetPrefix(t *testing.T) {
	_, c := newPair(t)
	if err := c.Set("armus:site:1", []byte("plain")); err != nil {
		t.Fatal(err)
	}
	if err := c.HSet("armus:site:2", "delta", []byte("d2")); err != nil {
		t.Fatal(err)
	}
	if err := c.HSet("armus:site:2", "base", []byte("b2")); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("other", []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, err := c.MGetPrefix("armus:site:")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		Key, Field string
		Value      []byte
	}{
		{Key: "armus:site:1", Field: "", Value: []byte("plain")},
		{Key: "armus:site:2", Field: "base", Value: []byte("b2")},
		{Key: "armus:site:2", Field: "delta", Value: []byte("d2")},
	}
	if len(got) != len(want) {
		t.Fatalf("MGetPrefix = %v, want %v", got, want)
	}
	for i := range want {
		if string(got[i].Key) != want[i].Key || string(got[i].Field) != want[i].Field || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	empty, err := c.MGetPrefix("nosuch:")
	if err != nil || len(empty) != 0 {
		t.Fatalf("MGetPrefix(nosuch) = %v, %v", empty, err)
	}
}

// A key living both as plain data and as a hash (SET then HSET) must show
// up once per stored entry, not be double-listed, and count as one key to
// KEYS and DEL.
func TestMGetPrefixMixedKey(t *testing.T) {
	_, c := newPair(t)
	if err := c.Set("k", []byte("plain")); err != nil {
		t.Fatal(err)
	}
	if err := c.HSet("k", "f", []byte("hashed")); err != nil {
		t.Fatal(err)
	}
	got, err := c.MGetPrefix("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[0].Field) != 0 || string(got[1].Field) != "f" {
		t.Fatalf("MGetPrefix mixed = %v", got)
	}
	if got, err := keys(c, ""); err != nil || len(got) != 1 || got[0] != "k" {
		t.Fatalf("Keys mixed = %q, %v; want [k]", got, err)
	}
	if n, err := c.Del("k"); err != nil || n != 1 {
		t.Fatalf("Del mixed = %d, %v; want 1", n, err)
	}
}

// TestStalledReaderDoesNotBlockWriters: a client that asks for a large
// reply and never reads it must not hold up the store. The server answers
// with nothing locked, so another client's SET goes through while the
// stalled reply sits in the socket.
func TestStalledReaderDoesNotBlockWriters(t *testing.T) {
	dir, err := os.MkdirTemp("", "armus-store")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	srv, err := NewServer("unix:" + filepath.Join(dir, "s"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := Dial(srv.Addr())
	defer c.Close()
	value := bytes.Repeat([]byte{'v'}, 64<<10)
	for i := 0; i < 64; i++ { // a 4 MiB reply, far more than a socket buffers
		if err := c.HSet("big", fmt.Sprintf("f%02d", i), value); err != nil {
			t.Fatal(err)
		}
	}
	stalled, err := net.Dial("unix", filepath.Join(dir, "s"))
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write(cmdBytes("MGETP", "big")); err != nil {
		t.Fatal(err)
	}
	// The first byte of the reply says the server is writing it; then stop
	// reading, with almost all of it still to go.
	if _, err := io.ReadFull(stalled, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- c.Set("k", []byte("v")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		stalled.Close() // lets the server and then the SET go
		<-done
		t.Fatal("SET waited behind a stalled MGETP reader")
	}
}

func TestHLen(t *testing.T) {
	_, c := newPair(t)
	if n, err := c.HLen("h"); err != nil || n != 0 {
		t.Fatalf("HLen absent = %d, %v", n, err)
	}
	if err := c.HSet("h", "f1", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := c.HSet("h", "f2", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if n, err := c.HLen("h"); err != nil || n != 2 {
		t.Fatalf("HLen = %d, %v", n, err)
	}
}

// TestPipelineExec drives a mixed batch through one flush and checks the
// replies come back in order, with per-command errors (nil reply, server
// error) carried in Reply.Err without aborting the batch.
func TestPipelineExec(t *testing.T) {
	_, c := newPair(t)
	if err := c.HSet("h", "base", []byte("b")); err != nil {
		t.Fatal(err)
	}
	p := c.Pipeline()
	p.Set("k", []byte("v"))
	p.HSet("h", "delta", []byte("d"))
	p.HLen("h")
	p.MGetPrefix("h")
	p.Del("absent")
	if p.Len() != 5 {
		t.Fatalf("Len = %d", p.Len())
	}
	reps, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 5 {
		t.Fatalf("got %d replies", len(reps))
	}
	if reps[0].Simple != "OK" || reps[1].Simple != "OK" {
		t.Fatalf("write replies = %+v %+v", reps[0], reps[1])
	}
	if reps[2].N != 2 {
		t.Fatalf("HLEN reply = %+v", reps[2])
	}
	entries, err := reps[3].Entries()
	if err != nil || len(entries) != 2 {
		t.Fatalf("MGETP reply = %v, %v", entries, err)
	}
	if reps[4].N != 0 || reps[4].Err != nil {
		t.Fatalf("DEL reply = %+v", reps[4])
	}
	// Exec cleared the queue: an immediate Exec is a no-op.
	if reps, err := p.Exec(); err != nil || reps != nil {
		t.Fatalf("empty Exec = %v, %v", reps, err)
	}
	// The pipeline is reusable, and a server error mid-batch does not
	// poison the commands after it.
	p.add("BOGUS", 1)
	p.Set("k2", []byte("v2"))
	reps, err = p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(reps[0].Err, ErrServerError) {
		t.Fatalf("bogus reply = %+v", reps[0])
	}
	if reps[1].Simple != "OK" || reps[1].Err != nil {
		t.Fatalf("set after bogus = %+v", reps[1])
	}
}

// TestPipelineReconnects: a pipelined batch against a restarted server is
// retried whole, once, on a fresh connection.
func TestPipelineReconnects(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	c := Dial(addr)
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv2, err := NewServer(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	p := c.Pipeline()
	p.Set("k", []byte("v"))
	p.MGetPrefix("k")
	reps, err := p.Exec()
	if err != nil {
		t.Fatalf("pipeline after restart: %v", err)
	}
	entries, err := reps[1].Entries()
	if err != nil || len(entries) != 1 || string(entries[0].Value) != "v" {
		t.Fatalf("entries after restart = %v, %v", entries, err)
	}
}

func TestClientStats(t *testing.T) {
	_, c := newPair(t)
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	p := c.Pipeline()
	p.Set("k2", []byte("v"))
	p.MGetPrefix("k")
	if _, err := p.Exec(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.RoundTrips != 3 {
		t.Fatalf("RoundTrips = %d, want 3", st.RoundTrips)
	}
	if st.Commands["SET"] != 2 || st.Commands["GET"] != 1 || st.Commands["MGETP"] != 1 {
		t.Fatalf("Commands = %v", st.Commands)
	}
}

// TestClientSurvivesManyRestarts cycles the server through several
// kill/rebind rounds under sequential traffic: the client must recover
// after every round (regression bed for the redial-once retry logic).
func TestClientSurvivesManyRestarts(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	c := Dial(addr)
	defer c.Close()
	for round := 0; round < 4; round++ {
		if err := c.Set("k", []byte{byte(round)}); err != nil {
			t.Fatalf("round %d: set against live server: %v", round, err)
		}
		srv.Close()
		_ = c.Ping() // may fail; must not wedge
		if srv, err = NewServer(addr); err != nil {
			t.Skipf("round %d: could not rebind %s: %v", round, addr, err)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("round %d: client did not recover: %v", round, err)
		}
	}
	srv.Close()
}

// TestMalformedTailFlushesBatchReplies pins the serve loop's error exit:
// a pipelined batch whose last frame is malformed still delivers the
// replies to the commands that executed before the connection closes —
// the reply-coalescing flush must not swallow them.
func TestMalformedTailFlushesBatchReplies(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Two valid commands, then a frame whose declared bulk length lies.
	batch := "*1\r\n$4\r\nPING\r\n" +
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n" +
		"*1\r\n$5\r\nBO\nGUS\r\n"
	if _, err := conn.Write([]byte(batch)); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn) // server closes after the bad frame
	if err != nil {
		t.Fatal(err)
	}
	want := "+PONG\r\n+OK\r\n"
	if string(got) != want {
		t.Fatalf("replies before close = %q, want %q", got, want)
	}
}

// cannedPeer answers the k-th connection it accepts with replies[k] (the
// last one again for any further connection) once the client has sent
// something, and counts the connections.
func cannedPeer(t *testing.T, replies ...string) (addr string, conns *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	conns = new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			k := int(conns.Add(1)) - 1
			go func() {
				defer conn.Close()
				if _, err := conn.Read(make([]byte, 4096)); err != nil {
					return
				}
				_, _ = conn.Write([]byte(replies[min(k, len(replies)-1)]))
				_, _ = conn.Read(make([]byte, 1)) // until the client hangs up
			}()
		}
	}()
	return ln.Addr().String(), conns
}

// TestBulkReplyNeedsItsTerminator: a bulk reply whose length is not followed
// by CRLF comes off a desynchronised stream. It must not reach Get's caller
// as a value: the connection is dropped like after any framing error, and
// the command retried once on a new one.
func TestBulkReplyNeedsItsTerminator(t *testing.T) {
	addr, conns := cannedPeer(t, "$3\r\nabcXY", "$3\r\nabc\r\n")
	c := Dial(addr)
	defer c.Close()
	v, err := c.Get("k")
	if err != nil || string(v) != "abc" || conns.Load() != 2 {
		t.Fatalf("Get = %q, %v over %d connections; want the well-formed reply of the second", v, err, conns.Load())
	}

	addr, conns = cannedPeer(t, "$3\r\nabcXY")
	c2 := Dial(addr)
	defer c2.Close()
	if v, err := c2.HGet("h", "f"); err == nil {
		t.Fatalf("HGet = %q from a peer that never terminates its bulks, want an error", v)
	}
	if conns.Load() != 2 {
		t.Fatalf("%d connections, want the first dropped and one retry", conns.Load())
	}
}

// TestPipelineRepliesLiveUntilNextExec pins the reply-lifetime contract: a
// pipeline's replies sit in storage it reuses, so they are whole until its
// next Exec — also the ones read before a chunk of that storage filled up
// and was replaced — and a warm pipeline's replies land where the last
// ones did.
func TestPipelineRepliesLiveUntilNextExec(t *testing.T) {
	_, c := newPair(t)
	big := bytes.Repeat([]byte{0xA5}, 3*minChunk) // no two of these share a chunk at first
	for i := 0; i < 4; i++ {
		if err := c.HSet(fmt.Sprintf("k%d", i), "base", append([]byte{byte(i)}, big...)); err != nil {
			t.Fatal(err)
		}
	}
	p := c.Pipeline()
	exec := func() []Entry {
		p.HSet("k0", "delta", []byte("d"))
		p.MGetPrefix("k")
		reps, err := p.Exec()
		if err != nil || len(reps) != 2 || reps[0].Simple != "OK" {
			t.Fatalf("Exec = %+v, %v", reps, err)
		}
		entries, err := reps[1].Entries()
		if err != nil || len(entries) != 5 {
			t.Fatalf("Entries = %d, %v", len(entries), err)
		}
		return entries
	}
	check := func(entries []Entry) {
		t.Helper()
		for _, e := range entries {
			if string(e.Field) == "delta" {
				if string(e.Key) != "k0" || string(e.Value) != "d" {
					t.Fatalf("delta entry = %q %q", e.Key, e.Value)
				}
				continue
			}
			if want := append([]byte{e.Key[1] - '0'}, big...); string(e.Field) != "base" || !bytes.Equal(e.Value, want) {
				t.Fatalf("entry %q/%q holds %d bytes starting %v", e.Key, e.Field, len(e.Value), e.Value[:1])
			}
		}
	}
	check(exec()) // cold: chunks fill up and are replaced mid-reply
	check(exec()) // one chunk sized for all of the last reply
	warm := exec()
	check(warm)
	if again := exec(); &again[0] != &warm[0] || &again[4].Value[0] != &warm[4].Value[0] {
		t.Fatal("a warm pipeline's next Exec did not reuse the storage of the last")
	}
}

// TestWarmCommandsAllocateNothing: once a client is warm, the round trips
// the snapshot persister makes — a SET of a value of the stored size and a
// DEL — allocate nothing, in the client or in the in-process store that
// answers them (the SET overwrites in place; the DEL finds no key).
func TestWarmCommandsAllocateNothing(t *testing.T) {
	_, c := newPair(t)
	key, value := "armus:sess:warm", bytes.Repeat([]byte{'v'}, 200)
	round := func() {
		if err := c.Set(key, value); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Del("armus:sess:gone"); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a warm SET and DEL allocate %.1f times, want 0", allocs)
	}
}
