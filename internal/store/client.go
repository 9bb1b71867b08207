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
	out  []byte // a single command, encoded

	roundTrips int64
	commands   map[string]int64
}

// ClientStats counts the traffic a client has issued: RoundTrips is the
// number of network writes (one per do call, one per pipeline Exec —
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
	return nil
}

func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends one command of argc arguments, name first, then what args
// appends (nil for none), and reads its reply, which is freshly allocated:
// callers keep what it holds. A command whose reply carries no bulk
// allocates nothing once the client is warm.
func (c *Client) do(name string, argc int, args func([]byte) []byte) (Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out = appendBulk(appendHeader(c.out[:0], '*', argc), name)
	if args != nil {
		c.out = args(c.out)
	}
	names := [1]string{name}
	var one [1]Reply
	reps, err := c.exec(names[:], c.out, nil, one[:0])
	if cap(c.out) > keepBytes {
		c.out = nil
	}
	if err != nil {
		return Reply{}, err
	}
	return reps[0], reps[0].Err
}

// exec is the client's one round trip, for a single command and a
// pipeline alike. It writes out, the encoding of the commands that names
// names, and reads one reply per command into replies, their storage
// carved from a (nil allocates). On a broken connection it redials and
// sends everything once more. ErrNil and server errors are replies, in
// Reply.Err; a transport failure is the error.
func (c *Client) exec(names []string, out []byte, a *arena, replies []Reply) ([]Reply, error) {
	c.roundTrips++
	for _, name := range names {
		c.countLocked(name)
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if lastErr = c.ensureConnLocked(); lastErr != nil {
			continue
		}
		if _, lastErr = c.conn.Write(out); lastErr != nil {
			c.dropLocked()
			continue
		}
		a.reset(maxBulk+2, maxArray)
		replies = replies[:0]
		for range names {
			rep, err := c.readReplyLocked(a)
			if err != nil && !errors.Is(err, ErrNil) && !errors.Is(err, ErrServerError) {
				lastErr = err
				break
			}
			rep.Err, rep.arena = err, a
			replies = append(replies, rep)
		}
		if len(replies) == len(names) {
			return replies, nil
		}
		c.dropLocked()
	}
	return replies, fmt.Errorf("store: %s unreachable: %w", c.addr, lastErr)
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
		return Reply{Bulk: b}, err
	case '*':
		arr, err := readArray(c.r, line, a)
		return Reply{Array: arr}, err
	default:
		return Reply{}, fmt.Errorf("store: bad reply %q", line)
	}
}

// Ping checks connectivity.
func (c *Client) Ping() error {
	rep, err := c.do("PING", 1, nil)
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
	_, err := c.do("SET", 3, func(b []byte) []byte { return appendBulk(appendBulk(b, key), value) })
	return err
}

// Get fetches key; ErrNil if absent.
func (c *Client) Get(key string) ([]byte, error) {
	rep, err := c.do("GET", 2, func(b []byte) []byte { return appendBulk(b, key) })
	if err != nil {
		return nil, err
	}
	return rep.Bulk, nil
}

// Del removes keys, returning how many existed.
func (c *Client) Del(keys ...string) (int, error) {
	rep, err := c.do("DEL", 1+len(keys), func(b []byte) []byte {
		for _, k := range keys {
			b = appendBulk(b, k)
		}
		return b
	})
	return rep.N, err
}

// HSet stores field=value in hash.
func (c *Client) HSet(hash, field string, value []byte) error {
	_, err := c.do("HSET", 4, func(b []byte) []byte {
		return appendBulk(appendBulk(appendBulk(b, hash), field), value)
	})
	return err
}

// HGet fetches hash[field]; ErrNil if absent.
func (c *Client) HGet(hash, field string) ([]byte, error) {
	rep, err := c.do("HGET", 3, func(b []byte) []byte { return appendBulk(appendBulk(b, hash), field) })
	if err != nil {
		return nil, err
	}
	return rep.Bulk, nil
}

// HLen returns the number of fields in hash (0 if absent).
func (c *Client) HLen(hash string) (int, error) {
	rep, err := c.do("HLEN", 2, func(b []byte) []byte { return appendBulk(b, hash) })
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
	rep, err := c.do("MGETP", 2, func(b []byte) []byte { return appendBulk(b, prefix) })
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
// or the chunk holds more than limit items, the next one is sized for all
// of it, up to limit items: a steady sequence of equal requests settles on
// one chunk and no allocation, and no chunk beyond limit is kept.
func (s *slab[T]) reset(limit int) {
	if s.total > cap(s.chunk) || cap(s.chunk) > limit {
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

// reset takes back everything handed out, keeping at most bytes of bulk
// storage and elems array elements (and elems/3 entries) for what comes
// next.
func (a *arena) reset(bytes, elems int) {
	if a == nil {
		return
	}
	a.bytes.reset(bytes)
	a.elems.reset(elems)
	a.ents.reset(elems / 3)
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

// Pipeline batches commands into one write; replies are matched in order,
// so N commands cost one network round trip instead of N. It goes through
// the same round trip as a single command: on a broken connection the
// whole batch is retried once after a redial — callers must only pipeline
// idempotent commands (SET, HSET, DEL, reads), which is all the
// verification rounds need. Commands are encoded as they are queued, so the
// caller may reuse a queued value at once. The pipeline owns the storage of its replies and reuses it: what
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

// Exec sends the queued commands in one write and reads one reply per
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
	p.c.mu.Lock()
	defer p.c.mu.Unlock()
	var err error
	if p.replies, err = p.c.exec(p.names, p.out, &p.arena, p.replies); err != nil {
		return nil, err
	}
	return p.replies, nil
}
