package store

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
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
	c.r, c.w = bufio.NewReader(c.conn), bufio.NewWriter(c.conn)
}

// cmdBytes encodes one client command in wire format, for building fuzz
// seed streams.
func cmdBytes(args ...string) []byte {
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	writeHeader(w, '*', len(args))
	for _, a := range args {
		writeBulkString(w, a)
	}
	w.Flush()
	return out.Bytes()
}

// FuzzStoreProtocol feeds arbitrary bytes to the server's command reader
// and dispatcher — the exact code path a connection exercises, covering
// every command including the batched MGETP and HLEN — and then to the
// client, as what a store said in reply to a pipeline. Three properties:
//
//  1. the server never panics, however malformed the stream,
//  2. every byte the server emits parses as a well-formed reply stream
//     through the client's own reply reader (protocol self-consistency:
//     whatever the server says, a pipelining client can match replies to
//     commands in order), and
//  3. the client's pipeline never panics either, sizes no piece of its
//     reply storage beyond the protocol's bounds whatever lengths the
//     bytes claim, and works on its next Exec whatever the last one read.
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
		s := &Server{
			data:   make(map[string][]byte),
			hashes: make(map[string]map[string][]byte),
		}
		r := bufio.NewReader(bytes.NewReader(data))
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		for {
			args, err := readArray(r)
			if err != nil {
				break
			}
			if err := s.dispatch(w, args); err != nil {
				break
			}
		}
		w.Flush()

		// The server speaks only complete replies: the client-side reply
		// reader must consume the whole output without a protocol error.
		c := &Client{r: bufio.NewReader(bytes.NewReader(out.Bytes()))}
		for {
			_, err := c.readReplyLocked(nil)
			if err == nil || errors.Is(err, ErrNil) || errors.Is(err, ErrServerError) {
				continue
			}
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatalf("server output does not parse as replies: %v\nreplies: %q", err, out.Bytes())
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
