// Package store implements the shared data store of the distributed
// deadlock-detection architecture (§5.2). The paper uses Redis; this is a
// stdlib-only stand-in with the same shape: an in-memory key-value server
// speaking a RESP-like binary-safe protocol over TCP, and a fault-tolerant
// client that transparently reconnects after server restarts.
//
// Supported commands: PING, SET, GET, DEL, KEYS (prefix match), HSET, HGET,
// HGETALL, HDEL, HLEN, MGETP — the subset the one-phase detection algorithm
// needs. A key can be a plain key and a hash at once (SET then HSET); KEYS
// lists it once and DEL counts it once. MGETP returns every value under a
// key prefix (plain keys and hash fields alike) in a single round trip, so
// a verification round costs one command instead of KEYS plus one GET per
// site; the Client additionally supports pipelining (Pipeline) so several
// commands share one write and one round trip.
package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Server is the in-memory store server.
type Server struct {
	ln net.Listener

	mu     sync.RWMutex
	index  map[string]*entry // every key's entry
	blocks [][]*entry        // the same entries in key order, in runs of 1 to 2*blockLen

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
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
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
	s.exchange(conn, new(arena))
}

// keepBytes is the most reply buffer and command storage a server
// connection keeps between commands, and the most encoding buffer a Client
// keeps between single commands; a larger command or reply gets storage of
// its own, dropped once it is written or answered.
const keepBytes = 64 << 10

// exchange answers the commands read from rw until the stream ends or
// fails. Each command is read into a, which is reset before every command
// (a nil arena allocates): dispatch copies whatever it keeps. Replies are
// appended to one buffer and written with nothing locked.
func (s *Server) exchange(rw io.ReadWriter, a *arena) {
	r := bufio.NewReader(rw)
	var out []byte
	for {
		a.reset(keepBytes, minChunk)
		line, err := readLine(r)
		var args [][]byte
		if err == nil {
			args, err = readArray(r, line, a)
		}
		if err != nil {
			// A malformed frame (or EOF) mid-batch must not swallow the
			// replies to commands that already ran: write them first,
			// best-effort, as the connection closes either way.
			if len(out) > 0 {
				_, _ = rw.Write(out)
			}
			return
		}
		out = s.dispatch(out, args)
		// Write once the client's pipelined batch is drained, so replies to
		// back-to-back commands coalesce into one write syscall, or once
		// keepBytes of them are waiting.
		if r.Buffered() == 0 || len(out) >= keepBytes {
			if _, err := rw.Write(out); err != nil {
				return
			}
			out = out[:0]
			if cap(out) > keepBytes {
				out = nil
			}
		}
	}
}

// dispatch runs one command and appends its reply to out. SET and HSET
// overwrite stored values in place, so a read appends its reply before it
// releases the read lock; the connection writes that copy unlocked.
func (s *Server) dispatch(out []byte, args [][]byte) []byte {
	if len(args) == 0 {
		return appendError(out, "empty command")
	}
	// The switch below compares the raw command bytes, which the compiler
	// handles without allocating; clients send uppercase, so the ToUpper
	// fallback in the default arm is the cold path.
	switch string(args[0]) {
	case "PING":
		return appendSimple(out, "PONG")

	case "SET":
		if len(args) != 3 {
			return appendError(out, "SET needs key and value")
		}
		s.mu.Lock()
		e := s.entry(args[1])
		if e.plain == nil {
			e.plain = e.newField("")
		}
		e.plain.set(args[2])
		s.mu.Unlock()
		return appendSimple(out, "OK")

	case "GET":
		if len(args) != 2 {
			return appendError(out, "GET needs key")
		}
		s.mu.RLock()
		defer s.mu.RUnlock()
		if f := s.lookup(args[1]).plain; f != nil {
			return append(out, f.enc[f.val:]...)
		}
		return appendNil(out)

	case "DEL":
		if len(args) < 2 {
			return appendError(out, "DEL needs at least one key")
		}
		n := 0
		s.mu.Lock()
		for _, k := range args[1:] {
			if b, i, ok := s.find(k); ok {
				s.remove(b, i)
				n++
			}
		}
		s.mu.Unlock()
		return appendHeader(out, ':', n)

	case "KEYS":
		if len(args) != 2 {
			return appendError(out, "KEYS needs a prefix")
		}
		s.mu.RLock()
		defer s.mu.RUnlock()
		b, i, _ := s.find(args[1])
		n := 0
		s.prefixed(b, i, args[1], func(*entry) { n++ })
		out = appendHeader(out, '*', n)
		s.prefixed(b, i, args[1], func(e *entry) { out = appendBulk(out, e.key) })
		return out

	case "HSET":
		if len(args) != 4 {
			return appendError(out, "HSET needs hash, field, value")
		}
		s.mu.Lock()
		e := s.entry(args[1])
		i, ok := e.find(args[2])
		if !ok {
			e.fields = slices.Insert(e.fields, i, e.newField(string(args[2])))
		}
		e.fields[i].set(args[3])
		s.mu.Unlock()
		return appendSimple(out, "OK")

	case "HGET":
		if len(args) != 3 {
			return appendError(out, "HGET needs hash and field")
		}
		s.mu.RLock()
		defer s.mu.RUnlock()
		e := s.lookup(args[1])
		if i, ok := e.find(args[2]); ok {
			return append(out, e.fields[i].enc[e.fields[i].val:]...)
		}
		return appendNil(out)

	case "HGETALL":
		if len(args) != 2 {
			return appendError(out, "HGETALL needs hash")
		}
		s.mu.RLock()
		defer s.mu.RUnlock()
		e := s.lookup(args[1])
		out = appendHeader(out, '*', 2*len(e.fields))
		for _, f := range e.fields {
			out = append(appendBulk(out, f.name), f.enc[f.val:]...)
		}
		return out

	case "HLEN":
		if len(args) != 2 {
			return appendError(out, "HLEN needs hash")
		}
		s.mu.RLock()
		n := len(s.lookup(args[1]).fields)
		s.mu.RUnlock()
		return appendHeader(out, ':', n)

	case "MGETP":
		if len(args) != 2 {
			return appendError(out, "MGETP needs a prefix")
		}
		// The reply is a flat array of (key, field, value) triples sorted
		// by (key, field); plain keys carry an empty field and come first.
		// Every triple is stored as it is sent.
		s.mu.RLock()
		defer s.mu.RUnlock()
		b, i, _ := s.find(args[1])
		n := 0
		s.prefixed(b, i, args[1], func(e *entry) {
			if e.plain != nil {
				n++
			}
			n += len(e.fields)
		})
		out = appendHeader(out, '*', 3*n)
		s.prefixed(b, i, args[1], func(e *entry) {
			if e.plain != nil {
				out = append(out, e.plain.enc...)
			}
			for _, f := range e.fields {
				out = append(out, f.enc...)
			}
		})
		return out

	case "HDEL":
		if len(args) != 3 {
			return appendError(out, "HDEL needs hash and field")
		}
		n := 0
		s.mu.Lock()
		if b, i, ok := s.find(args[1]); ok {
			e := s.blocks[b][i]
			if j, ok := e.find(args[2]); ok {
				e.fields = slices.Delete(e.fields, j, j+1)
				n = 1
				if len(e.fields) == 0 && e.plain == nil {
					// A hash goes with its last field: an empty one would
					// be listed, counted and scanned as a key for ever.
					s.remove(b, i)
				}
			}
		}
		s.mu.Unlock()
		return appendHeader(out, ':', n)

	default:
		up := strings.ToUpper(string(args[0]))
		if up != string(args[0]) {
			args[0] = []byte(up)
			return s.dispatch(out, args)
		}
		// Commands are binary-safe bulk strings but error lines are not:
		// quote the echo so an embedded CR/LF cannot corrupt the reply
		// stream.
		return appendError(out, "unknown command "+strconv.Quote(up))
	}
}

// entry is one stored key: a plain value, a hash, or both (SET then HSET).
// A key with neither is not stored.
type entry struct {
	key    string
	plain  *field   // the plain value, under the empty name, or nil
	fields []*field // the hash, sorted by name
}

// field is one stored value, kept as the triple MGETP sends for it: the
// key, the field's name and the value, each a bulk string.
type field struct {
	name string
	enc  []byte
	val  int // enc[val:] is the value, the reply to GET or HGET
}

// cmpName orders a stored name against one read off the wire, copying
// neither.
func cmpName(s string, b []byte) int {
	if s == string(b) {
		return 0
	} else if s < string(b) {
		return -1
	}
	return 1
}

// blockLen is half the most keys one block of Server.blocks holds. A new
// key moves at most 2*blockLen entries, and a split, at most once per
// blockLen new keys, copies half a block and moves one slice header per
// block, where one sorted list of every key would move half of them: a
// fleet's store keeps a key for every session it ever persisted.
const blockLen = 128

// find returns where key is in s.blocks, or where it would go, as block b
// and position i, and whether it is there.
func (s *Server) find(key []byte) (b, i int, ok bool) {
	b, _ = slices.BinarySearchFunc(s.blocks, key, func(blk []*entry, k []byte) int { return cmpName(blk[len(blk)-1].key, k) })
	if b > 0 && b == len(s.blocks) {
		b-- // after the last key: the end of the last block
	}
	if b < len(s.blocks) {
		i, ok = slices.BinarySearchFunc(s.blocks[b], key, func(e *entry, k []byte) int { return cmpName(e.key, k) })
	}
	return b, i, ok
}

// absent is the entry lookup returns for a key that is not stored. It is
// never written.
var absent entry

// lookup returns the entry of key, or absent.
func (s *Server) lookup(key []byte) *entry {
	if e := s.index[string(key)]; e != nil {
		return e
	}
	return &absent
}

// entry returns the entry of key, inserting one if there is none: the
// caller gives it a value before it releases the lock.
func (s *Server) entry(key []byte) *entry {
	if e := s.index[string(key)]; e != nil {
		return e
	}
	if s.index == nil {
		s.index = make(map[string]*entry)
	}
	b, i, _ := s.find(key)
	if len(s.blocks) == 0 {
		s.blocks = append(s.blocks, nil)
	}
	e := &entry{key: string(key)}
	s.index[e.key] = e
	blk := slices.Insert(s.blocks[b], i, e)
	if len(blk) > 2*blockLen {
		s.blocks = slices.Insert(s.blocks, b+1, slices.Clone(blk[blockLen:]))
		clear(blk[blockLen:])
		blk = blk[:blockLen]
	}
	s.blocks[b] = blk
	return e
}

// remove takes the entry at position i of block b out of s.blocks; a block
// goes with its last key.
func (s *Server) remove(b, i int) {
	delete(s.index, s.blocks[b][i].key)
	if s.blocks[b] = slices.Delete(s.blocks[b], i, i+1); len(s.blocks[b]) == 0 {
		s.blocks = slices.Delete(s.blocks, b, b+1)
	}
}

// prefixed calls yield on every entry whose key starts with prefix, in key
// order, from block b, position i: where find puts prefix. The caller reads
// them under the lock.
func (s *Server) prefixed(b, i int, prefix []byte, yield func(*entry)) {
	for ; b < len(s.blocks); b, i = b+1, 0 {
		for _, e := range s.blocks[b][i:] {
			if len(e.key) < len(prefix) || e.key[:len(prefix)] != string(prefix) {
				return
			}
			yield(e)
		}
	}
}

// find returns the position of the field name in e.fields, or where it
// would go, and whether it is there.
func (e *entry) find(name []byte) (int, bool) {
	return slices.BinarySearchFunc(e.fields, name, func(f *field, n []byte) int { return cmpName(f.name, n) })
}

// newField returns a field of e named name, with no value yet.
func (e *entry) newField(name string) *field {
	enc := appendBulk(appendBulk(nil, e.key), name)
	return &field{name: name, enc: enc, val: len(enc)}
}

// set makes v the field's value, in the storage the last one had when it
// fits, unless that is more than twice what v needs: a value that shrank
// does not keep its largest size's storage.
func (f *field) set(v []byte) {
	enc := f.enc[:f.val]
	// 16 bytes hold the value's bulk header and terminator.
	if need := f.val + len(v) + 16; cap(enc) > 2*need {
		enc = append(make([]byte, 0, need), enc...)
	}
	f.enc = appendBulk(enc, v)
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

func appendBulk[T string | []byte](b []byte, v T) []byte {
	b = append(appendHeader(b, '$', len(v)), v...)
	return append(b, '\r', '\n')
}

// appendSimple, appendError and appendNil append a status line, an error
// line and a nil bulk string.
func appendSimple(b []byte, s string) []byte { return append(append(append(b, '+'), s...), '\r', '\n') }
func appendError(b []byte, msg string) []byte {
	return append(append(append(b, "-ERR "...), msg...), '\r', '\n')
}
func appendNil(b []byte) []byte { return append(b, "$-1\r\n"...) }

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

// readArray reads the rest of an array of bulk strings whose header line
// was just read, into storage from a (nil allocates). It is the one array
// reader: the server's commands and the client's replies.
func readArray(r *bufio.Reader, line []byte, a *arena) ([][]byte, error) {
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
	arr := a.array(n)
	for i := range arr {
		if arr[i], err = readBulk(r, a); err != nil {
			return nil, err
		}
	}
	return arr, nil
}
