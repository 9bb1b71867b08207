// Package store implements the shared data store of the distributed
// deadlock-detection architecture (§5.2). The paper uses Redis; this is a
// stdlib-only stand-in with the same shape: an in-memory key-value server
// speaking a RESP-like binary-safe protocol over TCP, and a fault-tolerant
// client that transparently reconnects after server restarts.
//
// Supported commands: PING, SET, GET, DEL, KEYS (prefix match), HSET, HGET,
// HGETALL, HDEL, HLEN, MGETP — the subset the one-phase detection algorithm
// needs. MGETP returns every value under a key prefix (plain keys and hash
// fields alike) in a single round trip, so a verification round costs one
// command instead of KEYS plus one GET per site; the Client additionally
// supports pipelining (Pipeline) so several commands share one flush and
// one round trip.
package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Server is the in-memory store server.
type Server struct {
	ln net.Listener

	mu     sync.RWMutex
	data   map[string][]byte
	hashes map[string]map[string][]byte

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool
}

// NewServer starts a store server on addr (e.g. "127.0.0.1:0"). An address
// of the form "unix:/path/to.sock" listens on a unix domain socket instead
// of TCP — for store and sites on one machine that roughly halves the
// per-round-trip latency. It serves until Close is called.
func NewServer(addr string) (*Server, error) {
	ln, err := listen(addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:     ln,
		data:   make(map[string][]byte),
		hashes: make(map[string]map[string][]byte),
		conns:  make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// listen splits the optional "unix:" scheme off addr and opens the
// matching listener. Unix listeners unlink a stale socket file first so a
// restarted server can rebind the same path.
func listen(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		if conn, err := net.Dial("unix", path); err == nil {
			conn.Close()
			return nil, fmt.Errorf("store: %s already in use", addr)
		}
		_ = os.Remove(path)
		return net.Listen("unix", path)
	}
	return net.Listen("tcp", addr)
}

// Addr returns the address the server is listening on, in the same form
// NewServer accepts (unix sockets keep their "unix:" prefix).
func (s *Server) Addr() string {
	if s.ln.Addr().Network() == "unix" {
		return "unix:" + s.ln.Addr().String()
	}
	return s.ln.Addr().String()
}

// Close stops the server and closes every connection. The store contents
// are discarded (a restarted server starts empty, like a non-persistent
// Redis — the client and the detection algorithm tolerate this).
func (s *Server) Close() {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return
	}
	s.closed = true
	s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		args, err := readArray(r)
		if err != nil {
			// A malformed frame (or EOF) mid-batch must not swallow the
			// replies to commands that already executed: flush what's
			// buffered before closing, best-effort.
			w.Flush()
			return
		}
		if err := s.dispatch(w, args); err != nil {
			return
		}
		// Flush only once the client's pipelined batch is drained: replies
		// to back-to-back commands coalesce into one write syscall.
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

func (s *Server) dispatch(w *bufio.Writer, args [][]byte) error {
	if len(args) == 0 {
		return writeError(w, "empty command")
	}
	// The switch below compares the raw command bytes, which the compiler
	// handles without allocating; clients send uppercase, so the ToUpper
	// fallback in the default arm is the cold path.
	switch string(args[0]) {
	case "PING":
		return writeSimple(w, "PONG")

	case "SET":
		if len(args) != 3 {
			return writeError(w, "SET needs key and value")
		}
		s.mu.Lock()
		s.data[string(args[1])] = clone(args[2])
		s.mu.Unlock()
		return writeSimple(w, "OK")

	case "GET":
		if len(args) != 2 {
			return writeError(w, "GET needs key")
		}
		s.mu.RLock()
		v, ok := s.data[string(args[1])]
		s.mu.RUnlock()
		if !ok {
			return writeNil(w)
		}
		return writeBulk(w, v)

	case "DEL":
		if len(args) < 2 {
			return writeError(w, "DEL needs at least one key")
		}
		n := 0
		s.mu.Lock()
		for _, k := range args[1:] {
			key := string(k)
			if _, ok := s.data[key]; ok {
				delete(s.data, key)
				n++
			}
			if _, ok := s.hashes[key]; ok {
				delete(s.hashes, key)
				n++
			}
		}
		s.mu.Unlock()
		return writeInt(w, n)

	case "KEYS":
		if len(args) != 2 {
			return writeError(w, "KEYS needs a prefix")
		}
		prefix := string(args[1])
		s.mu.RLock()
		var keys []string
		for k := range s.data {
			if strings.HasPrefix(k, prefix) {
				keys = append(keys, k)
			}
		}
		for k := range s.hashes {
			if strings.HasPrefix(k, prefix) {
				keys = append(keys, k)
			}
		}
		s.mu.RUnlock()
		sort.Strings(keys)
		vals := make([][]byte, len(keys))
		for i, k := range keys {
			vals[i] = []byte(k)
		}
		return writeArray(w, vals)

	case "HSET":
		if len(args) != 4 {
			return writeError(w, "HSET needs hash, field, value")
		}
		s.mu.Lock()
		h, ok := s.hashes[string(args[1])]
		if !ok {
			h = make(map[string][]byte)
			s.hashes[string(args[1])] = h
		}
		h[string(args[2])] = clone(args[3])
		s.mu.Unlock()
		return writeSimple(w, "OK")

	case "HGET":
		if len(args) != 3 {
			return writeError(w, "HGET needs hash and field")
		}
		s.mu.RLock()
		v, ok := s.hashes[string(args[1])][string(args[2])]
		s.mu.RUnlock()
		if !ok {
			return writeNil(w)
		}
		return writeBulk(w, v)

	case "HGETALL":
		if len(args) != 2 {
			return writeError(w, "HGETALL needs hash")
		}
		s.mu.RLock()
		h := s.hashes[string(args[1])]
		fields := make([]string, 0, len(h))
		for f := range h {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		out := make([][]byte, 0, 2*len(fields))
		for _, f := range fields {
			out = append(out, []byte(f), clone(h[f]))
		}
		s.mu.RUnlock()
		return writeArray(w, out)

	case "HLEN":
		if len(args) != 2 {
			return writeError(w, "HLEN needs hash")
		}
		s.mu.RLock()
		n := len(s.hashes[string(args[1])])
		s.mu.RUnlock()
		return writeInt(w, n)

	case "MGETP":
		if len(args) != 2 {
			return writeError(w, "MGETP needs a prefix")
		}
		prefix := string(args[1])
		s.mu.RLock()
		var keys []string
		for k := range s.data {
			if strings.HasPrefix(k, prefix) {
				keys = append(keys, k)
			}
		}
		for k := range s.hashes {
			if strings.HasPrefix(k, prefix) {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		// A key can live in both maps (SET then HSET); emit it once per
		// store entry, so dedupe the merged key list.
		uniq := keys[:0]
		for i, k := range keys {
			if i == 0 || k != keys[i-1] {
				uniq = append(uniq, k)
			}
		}
		// Reply is a flat array of (key, field, value) triples sorted by
		// (key, field); plain keys carry an empty field. The entries stream
		// straight from the maps into the write buffer under the read lock,
		// with no intermediate slices or value copies.
		n := 0
		for _, k := range uniq {
			if _, ok := s.data[k]; ok {
				n++
			}
			n += len(s.hashes[k])
		}
		var fields []string
		emit := func() error {
			if err := writeHeader(w, '*', 3*n); err != nil {
				return err
			}
			for _, k := range uniq {
				if v, ok := s.data[k]; ok {
					if err := writeBulkString(w, k); err != nil {
						return err
					}
					if err := writeBulk(w, nil); err != nil {
						return err
					}
					if err := writeBulk(w, v); err != nil {
						return err
					}
				}
				if h, ok := s.hashes[k]; ok {
					fields = fields[:0]
					for f := range h {
						fields = append(fields, f)
					}
					sort.Strings(fields)
					for _, f := range fields {
						if err := writeBulkString(w, k); err != nil {
							return err
						}
						if err := writeBulkString(w, f); err != nil {
							return err
						}
						if err := writeBulk(w, h[f]); err != nil {
							return err
						}
					}
				}
			}
			return nil
		}
		err := emit()
		s.mu.RUnlock()
		return err

	case "HDEL":
		if len(args) != 3 {
			return writeError(w, "HDEL needs hash and field")
		}
		n := 0
		s.mu.Lock()
		if h, ok := s.hashes[string(args[1])]; ok {
			if _, ok := h[string(args[2])]; ok {
				delete(h, string(args[2]))
				n = 1
				if len(h) == 0 {
					// A hash goes with its last field: an empty one would
					// be listed, counted and scanned as a key for ever.
					delete(s.hashes, string(args[1]))
				}
			}
		}
		s.mu.Unlock()
		return writeInt(w, n)

	default:
		up := strings.ToUpper(string(args[0]))
		if up != string(args[0]) {
			args[0] = []byte(up)
			return s.dispatch(w, args)
		}
		// Commands are binary-safe bulk strings but error lines are not:
		// quote the echo so an embedded CR/LF cannot corrupt the reply
		// stream.
		return writeError(w, "unknown command "+strconv.Quote(up))
	}
}

func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// --- protocol ---------------------------------------------------------

// ErrServerError wraps an -ERR response from the server.
var ErrServerError = errors.New("store: server error")

// ErrNil is returned by Get/HGet for a missing key.
var ErrNil = errors.New("store: nil reply")

// appendHeader appends a one-byte type tag, a decimal count, and CRLF,
// without going through fmt.
func appendHeader(b []byte, tag byte, n int) []byte {
	b = append(b, tag)
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, '\r', '\n')
}

// writeHeader formats the header straight into the bufio writer's spare
// capacity.
func writeHeader(w *bufio.Writer, tag byte, n int) error {
	_, err := w.Write(appendHeader(w.AvailableBuffer(), tag, n))
	return err
}

func writeSimple(w *bufio.Writer, s string) error {
	if err := w.WriteByte('+'); err != nil {
		return err
	}
	if _, err := w.WriteString(s); err != nil {
		return err
	}
	_, err := w.WriteString("\r\n")
	return err
}

func writeError(w *bufio.Writer, msg string) error {
	if _, err := w.WriteString("-ERR "); err != nil {
		return err
	}
	if _, err := w.WriteString(msg); err != nil {
		return err
	}
	_, err := w.WriteString("\r\n")
	return err
}

func writeInt(w *bufio.Writer, n int) error {
	return writeHeader(w, ':', n)
}

func writeNil(w *bufio.Writer) error {
	_, err := w.WriteString("$-1\r\n")
	return err
}

func writeBulk(w *bufio.Writer, b []byte) error {
	if err := writeHeader(w, '$', len(b)); err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err := w.WriteString("\r\n")
	return err
}

// writeBulkString is writeBulk for string-typed data, avoiding a []byte
// conversion at the call site.
func writeBulkString(w *bufio.Writer, s string) error {
	if err := writeHeader(w, '$', len(s)); err != nil {
		return err
	}
	if _, err := w.WriteString(s); err != nil {
		return err
	}
	_, err := w.WriteString("\r\n")
	return err
}

func writeArray(w *bufio.Writer, items [][]byte) error {
	if err := writeHeader(w, '*', len(items)); err != nil {
		return err
	}
	for _, it := range items {
		if err := writeBulk(w, it); err != nil {
			return err
		}
	}
	return nil
}

// readLine returns one CRLF-terminated protocol line without the CRLF. The
// slice aliases the reader's internal buffer and is valid only until the
// next read; every caller parses or copies it before reading again.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Rare slow path: the line outgrows the buffer (e.g. a very long
		// error message); accumulate fragments into a fresh slice.
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = r.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("store: malformed line %q", line)
	}
	return line[:len(line)-2], nil
}

// maxBulk bounds a single value (16 MiB) to keep a corrupted length prefix
// from allocating unbounded memory; maxArray bounds an array's length.
const (
	maxBulk  = 16 << 20
	maxArray = 1 << 20
)

// readBulkBody reads the rest of a bulk string whose header line was just
// read, into storage from a (nil allocates). It is the one bulk reader:
// server and client, single replies and array elements. A nil bulk is
// ErrNil; a length out of bounds or a missing CRLF is a framing error.
func readBulkBody(r *bufio.Reader, line []byte, a *arena) ([]byte, error) {
	if len(line) == 0 || line[0] != '$' {
		return nil, fmt.Errorf("store: expected bulk string, got %q", line)
	}
	n, err := strconv.Atoi(string(line[1:]))
	if err != nil {
		return nil, err
	}
	if n == -1 {
		return nil, ErrNil
	}
	if n < 0 || n > maxBulk {
		return nil, fmt.Errorf("store: bad bulk length %d", n)
	}
	buf := a.bulk(n + 2)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return nil, errors.New("store: bulk string missing terminator")
	}
	return buf[:n:n], nil
}

// readBulk reads one element of an array, where a nil bulk has no meaning.
func readBulk(r *bufio.Reader, a *arena) ([]byte, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	b, err := readBulkBody(r, line, a)
	if err == ErrNil {
		return nil, errors.New("store: nil bulk inside an array")
	}
	return b, err
}

func readArray(r *bufio.Reader) ([][]byte, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 || line[0] != '*' {
		return nil, fmt.Errorf("store: expected array, got %q", line)
	}
	n, err := strconv.Atoi(string(line[1:]))
	if err != nil {
		return nil, err
	}
	if n < 0 || n > maxArray {
		return nil, fmt.Errorf("store: bad array length %d", n)
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		b, err := readBulk(r, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
