package store

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// scriptConn is a connection whose peer says what the script says and
// ignores what it is told.
type scriptConn struct{ script *bytes.Reader }

func (c *scriptConn) Read(b []byte) (int, error)       { return c.script.Read(b) }
func (c *scriptConn) Write(b []byte) (int, error)      { return len(b), nil }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// connect puts the client on a connection to a peer that replies script.
func (c *Client) connect(script []byte) {
	c.conn = &scriptConn{script: bytes.NewReader(script)}
	c.r = bufio.NewReader(c.conn)
}

// cmdBytes encodes one client command in wire format, for building fuzz
// seed streams.
func cmdBytes(args ...string) []byte { return appendCommand(nil, args...) }

// replay runs a fresh server's side of one connection over a stream that
// says data, each command read into a (nil allocates), and returns the
// server and what it answered.
func replay(data []byte, a *arena) (*Server, []byte) {
	s := new(Server)
	var out bytes.Buffer
	s.exchange(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(data), &out}, a)
	return s, out.Bytes()
}

// dumpKeys renders a server's keys with every stored triple, for failures.
func dumpKeys(s *Server) string {
	var b strings.Builder
	for _, e := range entries(s) {
		if e.plain != nil {
			fmt.Fprintf(&b, "%q ", e.plain.enc)
		}
		for _, f := range e.fields {
			fmt.Fprintf(&b, "%q ", f.enc)
		}
	}
	return b.String()
}

// FuzzStoreProtocol feeds arbitrary bytes to the server's side of a
// connection — the exact code path a connection exercises, covering every
// command including the batched MGETP and HLEN — and then to the client,
// as what a store said in reply to a pipeline. Four properties:
//
//  1. the server never panics, however malformed the stream,
//  2. every byte the server emits parses as a well-formed reply stream
//     through the client's own reply reader (protocol self-consistency:
//     whatever the server says, a pipelining client can match replies to
//     commands in order),
//  3. the client's pipeline never panics either, sizes no piece of its
//     reply storage beyond the protocol's bounds whatever lengths the
//     bytes claim, and works on its next Exec whatever the last one read,
//     and
//  4. reading the commands into the connection's reused arena and into
//     fresh storage leaves the same store and says the same bytes: no
//     stored value aliases storage the next command overwrites; and the
//     store keeps its layout's rules (checkLayout).
func FuzzStoreProtocol(f *testing.F) {
	var all []byte
	for _, c := range [][]string{
		{"PING"},
		{"SET", "armus:site:1", "v1"},
		{"GET", "armus:site:1"},
		{"HSET", "armus:site:2", "base", "payload"},
		{"HSET", "armus:site:2", "delta", "payload2"},
		{"HLEN", "armus:site:2"},
		{"MGETP", "armus:site:"},
		{"HGETALL", "armus:site:2"},
		{"HGET", "armus:site:2", "base"},
		{"HDEL", "armus:site:2", "delta"},
		{"KEYS", "armus:"},
		{"DEL", "armus:site:1", "armus:site:2"},
		{"GET", "missing"},
		{"mgetp", "armus:"}, // lowercase goes through the ToUpper fallback
		{"BOGUS", "x"},
		{"SET"}, // arity error
	} {
		b := cmdBytes(c...)
		f.Add(b)
		all = append(all, b...)
	}
	f.Add(all)                                   // the whole lot as one pipelined batch
	f.Add(all[:len(all)-3])                      // truncated mid-command
	f.Add([]byte("*1\r\n$4\r\nPING\r\njunk"))    // valid then garbage
	f.Add([]byte("*-1\r\n"))                     // negative array length
	f.Add([]byte("*1\r\n$99999999999\r\nx\r\n")) // huge bulk length
	// Reply streams, for the client leg.
	goodReply := []byte("+OK\r\n*3\r\n$1\r\nk\r\n$5\r\ndelta\r\n$1\r\nv\r\n")
	f.Add(goodReply)
	f.Add([]byte("$3\r\nabcXY"))                      // bulk with a wrong terminator
	f.Add([]byte("+OK\r\n*3\r\n$1\r\nk\r\n$-1\r\n"))  // nil bulk inside an array
	f.Add([]byte("+OK\r\n*1048576\r\n$16777216\r\n")) // the largest lengths allowed, and nothing behind them

	f.Fuzz(func(t *testing.T, data []byte) {
		s, out := replay(data, new(arena))
		fresh, freshOut := replay(data, nil)
		if !bytes.Equal(out, freshOut) || !reflect.DeepEqual(s.blocks, fresh.blocks) {
			t.Fatalf("commands read into a reused arena and into fresh storage differ:\nreplies %q\n   want %q\nkeys %s\nwant %s",
				out, freshOut, dumpKeys(s), dumpKeys(fresh))
		}
		if err := checkLayout(s); err != nil {
			t.Fatal(err)
		}

		// The server speaks only complete replies: the client-side reply
		// reader must consume the whole output without a protocol error.
		c := &Client{r: bufio.NewReader(bytes.NewReader(out))}
		for {
			_, err := c.readReplyLocked(nil)
			if err == nil || errors.Is(err, ErrNil) || errors.Is(err, ErrServerError) {
				continue
			}
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatalf("server output does not parse as replies: %v\nreplies: %q", err, out)
		}

		// The client leg. Its address is a socket that does not exist: the
		// retry after a framing error fails to dial, at once.
		c = &Client{addr: "unix:/nonexistent/armus-fuzz.sock", dialTimeout: time.Second}
		c.connect(data)
		p := c.Pipeline()
		p.HSet("k", "delta", []byte("v"))
		p.MGetPrefix("k")
		if reps, err := p.Exec(); err == nil {
			for _, r := range reps {
				_, _ = r.Entries()
			}
		}
		if a := &p.arena; cap(a.bytes.chunk) > maxBulk+2 || cap(a.elems.chunk) > maxArray || cap(a.ents.chunk) > maxArray/3 {
			t.Fatalf("reply storage grew to %d bytes, %d elements, %d entries", cap(a.bytes.chunk), cap(a.elems.chunk), cap(a.ents.chunk))
		}
		c.connect(goodReply)
		p.HSet("k", "delta", []byte("v"))
		p.MGetPrefix("k")
		reps, err := p.Exec()
		if err != nil || len(reps) != 2 || reps[0].Simple != "OK" {
			t.Fatalf("Exec after an Exec that read %q: %+v, %v", data, reps, err)
		}
		if e, err := reps[1].Entries(); err != nil || len(e) != 1 || string(e[0].Key) != "k" || string(e[0].Field) != "delta" || string(e[0].Value) != "v" {
			t.Fatalf("Exec after an Exec that read %q: entries %+v, %v", data, e, err)
		}
	})
}
