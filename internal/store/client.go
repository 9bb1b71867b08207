package store

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Client is a fault-tolerant store client: if the connection drops (server
// restart, network blip) the next command transparently redials. This is
// the property §5.2 relies on for resisting data-store failures — sites
// keep running and simply retry on the next verification round.
type Client struct {
	addr        string
	dialTimeout time.Duration

	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	roundTrips int64
	commands   map[string]int64
}

// ClientStats counts the traffic a client has issued: RoundTrips is the
// number of network flushes (one per do call, one per pipeline Exec —
// retries after a reconnect do not count twice), Commands the number of
// commands sent, by name. The dist tests use these to assert a check
// round costs one MGETP instead of KEYS plus N GETs.
type ClientStats struct {
	RoundTrips int64
	Commands   map[string]int64
}

// Stats returns a copy of the client's traffic counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := ClientStats{RoundTrips: c.roundTrips, Commands: make(map[string]int64, len(c.commands))}
	for k, v := range c.commands {
		out.Commands[k] = v
	}
	return out
}

func (c *Client) countLocked(name string) {
	if c.commands == nil {
		c.commands = make(map[string]int64)
	}
	c.commands[name]++
}

// Dial creates a client for the server at addr. The connection is
// established lazily on first use.
func Dial(addr string) *Client {
	return &Client{addr: addr, dialTimeout: 2 * time.Second}
}

// Close closes the current connection, if any.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

func (c *Client) ensureConnLocked() error {
	if c.conn != nil {
		return nil
	}
	network, addr := "tcp", c.addr
	if path, ok := strings.CutPrefix(c.addr, "unix:"); ok {
		network, addr = "unix", path
	}
	conn, err := net.DialTimeout(network, addr, c.dialTimeout)
	if err != nil {
		return err
	}
	c.conn = conn
	c.r = bufio.NewReader(conn)
	c.w = bufio.NewWriter(conn)
	return nil
}

func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends one command and reads one reply, retrying once on a broken
// connection. The reply is freshly allocated: callers keep what it holds.
func (c *Client) do(args ...[]byte) (Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.roundTrips++
	c.countLocked(string(args[0]))
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := c.ensureConnLocked(); err != nil {
			lastErr = err
			continue
		}
		if err := c.writeCommandLocked(args); err != nil {
			c.dropLocked()
			lastErr = err
			continue
		}
		rep, err := c.readReplyLocked(nil)
		if err != nil {
			// ErrNil and server errors are valid replies, not transport
			// failures: do not retry those.
			if errors.Is(err, ErrNil) || errors.Is(err, ErrServerError) {
				return rep, err
			}
			c.dropLocked()
			lastErr = err
			continue
		}
		return rep, nil
	}
	return Reply{}, fmt.Errorf("store: %s unreachable: %w", c.addr, lastErr)
}

func (c *Client) writeCommandLocked(args [][]byte) error {
	if err := writeHeader(c.w, '*', len(args)); err != nil {
		return err
	}
	for _, a := range args {
		if err := writeBulk(c.w, a); err != nil {
			return err
		}
	}
	return c.w.Flush()
}

// simpleString is string(b) without an allocation for the status lines the
// server actually sends.
func simpleString(b []byte) string {
	switch string(b) {
	case "OK":
		return "OK"
	case "PONG":
		return "PONG"
	}
	return string(b)
}

// readReplyLocked reads one reply, its bulks and array carved from a (a nil
// arena allocates them). Err of the result is left unset: ErrNil and server
// errors come back as the error, like a transport failure, and the caller
// tells them apart.
func (c *Client) readReplyLocked(a *arena) (Reply, error) {
	line, err := readLine(c.r)
	if err != nil {
		return Reply{}, err
	}
	if len(line) == 0 {
		return Reply{}, errors.New("store: empty reply")
	}
	switch line[0] {
	case '+':
		return Reply{Simple: simpleString(line[1:])}, nil
	case '-':
		return Reply{}, fmt.Errorf("%w: %s", ErrServerError, line[1:])
	case ':':
		n, err := strconv.Atoi(string(line[1:]))
		if err != nil {
			return Reply{}, err
		}
		return Reply{N: n}, nil
	case '$':
		b, err := readBulkBody(c.r, line, a)
		if err != nil {
			return Reply{}, err
		}
		return Reply{Bulk: b}, nil
	case '*':
		n, err := strconv.Atoi(string(line[1:]))
		if err != nil {
			return Reply{}, err
		}
		if n < 0 || n > maxArray {
			return Reply{}, fmt.Errorf("store: bad array length %d", n)
		}
		arr := a.array(n)
		for i := range arr {
			if arr[i], err = readBulk(c.r, a); err != nil {
				return Reply{}, err
			}
		}
		return Reply{Array: arr}, nil
	default:
		return Reply{}, fmt.Errorf("store: bad reply %q", line)
	}
}

// Ping checks connectivity.
func (c *Client) Ping() error {
	rep, err := c.do([]byte("PING"))
	if err != nil {
		return err
	}
	if rep.Simple != "PONG" {
		return fmt.Errorf("store: unexpected ping reply %q", rep.Simple)
	}
	return nil
}

// Set stores value under key.
func (c *Client) Set(key string, value []byte) error {
	_, err := c.do([]byte("SET"), []byte(key), value)
	return err
}

// Get fetches key; ErrNil if absent.
func (c *Client) Get(key string) ([]byte, error) {
	rep, err := c.do([]byte("GET"), []byte(key))
	if err != nil {
		return nil, err
	}
	return rep.Bulk, nil
}

// Del removes keys, returning how many existed.
func (c *Client) Del(keys ...string) (int, error) {
	args := make([][]byte, 0, len(keys)+1)
	args = append(args, []byte("DEL"))
	for _, k := range keys {
		args = append(args, []byte(k))
	}
	rep, err := c.do(args...)
	return rep.N, err
}

// Keys lists all keys with the given prefix.
func (c *Client) Keys(prefix string) ([]string, error) {
	rep, err := c.do([]byte("KEYS"), []byte(prefix))
	if err != nil {
		return nil, err
	}
	out := make([]string, len(rep.Array))
	for i, b := range rep.Array {
		out[i] = string(b)
	}
	return out, nil
}

// HSet stores field=value in hash.
func (c *Client) HSet(hash, field string, value []byte) error {
	_, err := c.do([]byte("HSET"), []byte(hash), []byte(field), value)
	return err
}

// HGet fetches hash[field]; ErrNil if absent.
func (c *Client) HGet(hash, field string) ([]byte, error) {
	rep, err := c.do([]byte("HGET"), []byte(hash), []byte(field))
	if err != nil {
		return nil, err
	}
	return rep.Bulk, nil
}

// HGetAll returns every field of the hash.
func (c *Client) HGetAll(hash string) (map[string][]byte, error) {
	rep, err := c.do([]byte("HGETALL"), []byte(hash))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(rep.Array)/2)
	for i := 0; i+1 < len(rep.Array); i += 2 {
		out[string(rep.Array[i])] = rep.Array[i+1]
	}
	return out, nil
}

// HDel removes hash[field], reporting whether it existed.
func (c *Client) HDel(hash, field string) (bool, error) {
	rep, err := c.do([]byte("HDEL"), []byte(hash), []byte(field))
	return rep.N > 0, err
}

// HLen returns the number of fields in hash (0 if absent).
func (c *Client) HLen(hash string) (int, error) {
	rep, err := c.do([]byte("HLEN"), []byte(hash))
	return rep.N, err
}

// Entry is one (key, field, value) triple from an MGETP reply, as it came
// off the wire: three views into the reply's storage, no string made per
// entry. Plain keys carry an empty Field; hash keys contribute one Entry per
// field. Entries arrive sorted by (Key, Field).
type Entry struct {
	Key   []byte
	Field []byte
	Value []byte
}

// MGetPrefix returns every value stored under keys with the given prefix
// — plain keys and hash fields alike — in one round trip.
func (c *Client) MGetPrefix(prefix string) ([]Entry, error) {
	rep, err := c.do([]byte("MGETP"), []byte(prefix))
	if err != nil {
		return nil, err
	}
	return rep.Entries()
}

// Reply is one command's result. From a pipelined Exec, Err carries ErrNil
// or a server error for that command (transport failures abort the whole
// Exec instead), and Bulk, Array and what Entries returns live in storage
// the Pipeline owns: they are valid until its next Exec.
type Reply struct {
	Simple string
	N      int
	Bulk   []byte
	Array  [][]byte
	Err    error

	arena *arena // of the Pipeline that read it; nil for a single command's
}

// Entries parses the reply of an MGetPrefix.
func (r Reply) Entries() ([]Entry, error) {
	if r.Err != nil {
		return nil, r.Err
	}
	if len(r.Array)%3 != 0 {
		return nil, fmt.Errorf("store: MGETP reply length %d not a multiple of 3", len(r.Array))
	}
	out := r.arena.entries(len(r.Array) / 3)
	for i := range out {
		out[i] = Entry{Key: r.Array[3*i], Field: r.Array[3*i+1], Value: r.Array[3*i+2]}
	}
	return out, nil
}

// minChunk is the least capacity of a chunk an arena allocates, in items.
const minChunk = 512

// slab hands out slices of T from a chunk it reuses after every reset. A
// chunk that cannot fit a request is replaced by a new one, never grown, so
// slices handed out earlier stay valid — and what they hold is only
// overwritten by a request after the next reset.
type slab[T any] struct {
	chunk []T // its length is what was handed out of it
	total int // handed out since the last reset, over every chunk
}

// take returns n items of storage, holding whatever their previous use left.
func (s *slab[T]) take(n int) []T {
	if n > cap(s.chunk)-len(s.chunk) {
		s.chunk = make([]T, 0, max(n, minChunk))
	}
	off := len(s.chunk)
	s.chunk = s.chunk[:off+n]
	s.total += n
	return s.chunk[off : off+n : off+n]
}

// reset takes back everything handed out. If that did not fit one chunk,
// the next one is sized for all of it (up to limit items), so a steady
// sequence of equal requests settles on one chunk and no allocation.
func (s *slab[T]) reset(limit int) {
	if s.total > cap(s.chunk) {
		s.chunk = make([]T, 0, min(s.total, limit))
	}
	s.chunk, s.total = s.chunk[:0], 0
}

// arena is the storage of one Pipeline's replies. A nil *arena allocates
// every request afresh, which is what a single command's reply is made of.
type arena struct {
	bytes slab[byte]   // bulk strings, with their CRLF
	elems slab[[]byte] // array elements
	ents  slab[Entry]  // parsed MGETP entries
}

func (a *arena) reset() {
	a.bytes.reset(maxBulk + 2)
	a.elems.reset(maxArray)
	a.ents.reset(maxArray / 3)
}

func (a *arena) bulk(n int) []byte {
	if a == nil {
		return make([]byte, n)
	}
	return a.bytes.take(n)
}

func (a *arena) array(n int) [][]byte {
	if a == nil {
		return make([][]byte, n)
	}
	return a.elems.take(n)
}

func (a *arena) entries(n int) []Entry {
	if a == nil {
		return make([]Entry, n)
	}
	return a.ents.take(n)
}

// Pipeline batches commands into one buffered write with a single flush;
// replies are matched in order, so N commands cost one network round trip
// instead of N. On a broken connection the whole batch is retried once
// after a redial — callers must only pipeline idempotent commands (SET,
// HSET, DEL, reads), which is all the verification rounds need. Commands
// are encoded as they are queued, so the caller may reuse a queued value at
// once. The pipeline owns the storage of its replies and reuses it: what
// Exec returns — the slice, every Bulk and Array, every Entries result — is
// valid until the next Exec, and a caller that keeps any of it longer
// copies it. A Pipeline is not safe for concurrent use; Exec resets it for
// reuse.
type Pipeline struct {
	c       *Client
	names   []string // of the queued commands, for the traffic counters
	out     []byte   // the queued commands, encoded
	replies []Reply
	arena   arena
}

// Pipeline returns an empty pipeline bound to this client.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

// add queues the header of a command of argc arguments, the name included;
// the caller appends the others with appendBulk.
func (p *Pipeline) add(name string, argc int) {
	p.names = append(p.names, name)
	p.out = appendBulk(appendHeader(p.out, '*', argc), name)
}

func appendBulk[T string | []byte](buf []byte, v T) []byte {
	buf = append(appendHeader(buf, '$', len(v)), v...)
	return append(buf, '\r', '\n')
}

// Len reports how many commands are queued.
func (p *Pipeline) Len() int { return len(p.names) }

// Set queues SET key value.
func (p *Pipeline) Set(key string, value []byte) {
	p.add("SET", 3)
	p.out = appendBulk(appendBulk(p.out, key), value)
}

// Del queues DEL key.
func (p *Pipeline) Del(key string) {
	p.add("DEL", 2)
	p.out = appendBulk(p.out, key)
}

// HSet queues HSET hash field value.
func (p *Pipeline) HSet(hash, field string, value []byte) {
	p.add("HSET", 4)
	p.out = appendBulk(appendBulk(appendBulk(p.out, hash), field), value)
}

// HLen queues HLEN hash.
func (p *Pipeline) HLen(hash string) {
	p.add("HLEN", 2)
	p.out = appendBulk(p.out, hash)
}

// MGetPrefix queues MGETP prefix.
func (p *Pipeline) MGetPrefix(prefix string) {
	p.add("MGETP", 2)
	p.out = appendBulk(p.out, prefix)
}

// Exec flushes the queued commands in one write and reads one reply per
// command, in order. The queue is cleared for reuse whether or not Exec
// succeeds. An empty pipeline returns (nil, nil) without touching the
// network.
func (p *Pipeline) Exec() ([]Reply, error) {
	defer func() {
		p.names = p.names[:0]
		p.out = p.out[:0]
	}()
	if len(p.names) == 0 {
		return nil, nil
	}
	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.roundTrips++
	for _, name := range p.names {
		c.countLocked(name)
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := c.ensureConnLocked(); err != nil {
			lastErr = err
			continue
		}
		_, werr := c.w.Write(p.out)
		if werr == nil {
			werr = c.w.Flush()
		}
		if werr != nil {
			c.dropLocked()
			lastErr = werr
			continue
		}
		p.arena.reset()
		p.replies = p.replies[:0]
		ok := true
		for range p.names {
			rep, err := c.readReplyLocked(&p.arena)
			if err != nil && !errors.Is(err, ErrNil) && !errors.Is(err, ErrServerError) {
				c.dropLocked()
				lastErr = err
				ok = false
				break
			}
			rep.Err, rep.arena = err, &p.arena
			p.replies = append(p.replies, rep)
		}
		if !ok {
			continue
		}
		return p.replies, nil
	}
	return nil, fmt.Errorf("store: %s unreachable: %w", c.addr, lastErr)
}
