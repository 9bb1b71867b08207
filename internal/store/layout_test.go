package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// mapModel is the store as it was kept before the server stored its keys in
// order: a map of plain values and a map of hashes, with the keys and each
// hash's fields sorted on every read. It is the reference the ordered layout
// answers against, reply for reply.
type mapModel struct {
	data   map[string][]byte
	hashes map[string]map[string][]byte
}

func newMapModel() *mapModel {
	return &mapModel{data: map[string][]byte{}, hashes: map[string]map[string][]byte{}}
}

// keys returns the keys with the given prefix, sorted and each once.
func (m *mapModel) keys(prefix string) []string {
	var keys []string
	for k := range m.data {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	for k := range m.hashes {
		if _, plain := m.data[k]; !plain && strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func sortedKeys(h map[string][]byte) []string {
	var fields []string
	for f := range h {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	return fields
}

// do answers a well-formed command (the arity checks are dispatch's, and
// shared) the way the map-of-maps store did.
func (m *mapModel) do(out []byte, args []string) []byte {
	bulkOrNil := func(v []byte, ok bool) []byte {
		if !ok {
			return appendNil(out)
		}
		return appendBulk(out, v)
	}
	switch args[0] {
	case "SET":
		m.data[args[1]] = []byte(args[2])
		return appendSimple(out, "OK")
	case "GET":
		v, ok := m.data[args[1]]
		return bulkOrNil(v, ok)
	case "DEL":
		n := 0
		for _, k := range args[1:] {
			_, plain := m.data[k]
			_, hash := m.hashes[k]
			if plain || hash {
				n++
			}
			delete(m.data, k)
			delete(m.hashes, k)
		}
		return appendHeader(out, ':', n)
	case "KEYS":
		keys := m.keys(args[1])
		out = appendHeader(out, '*', len(keys))
		for _, k := range keys {
			out = appendBulk(out, k)
		}
		return out
	case "HSET":
		h, ok := m.hashes[args[1]]
		if !ok {
			h = map[string][]byte{}
			m.hashes[args[1]] = h
		}
		h[args[2]] = []byte(args[3])
		return appendSimple(out, "OK")
	case "HGET":
		v, ok := m.hashes[args[1]][args[2]]
		return bulkOrNil(v, ok)
	case "HGETALL":
		h := m.hashes[args[1]]
		out = appendHeader(out, '*', 2*len(h))
		for _, f := range sortedKeys(h) {
			out = appendBulk(appendBulk(out, f), h[f])
		}
		return out
	case "HLEN":
		return appendHeader(out, ':', len(m.hashes[args[1]]))
	case "HDEL":
		n := 0
		if h, ok := m.hashes[args[1]]; ok {
			if _, ok := h[args[2]]; ok {
				delete(h, args[2])
				n = 1
				if len(h) == 0 {
					delete(m.hashes, args[1])
				}
			}
		}
		return appendHeader(out, ':', n)
	case "MGETP":
		keys := m.keys(args[1])
		n := 0
		for _, k := range keys {
			if _, ok := m.data[k]; ok {
				n++
			}
			n += len(m.hashes[k])
		}
		out = appendHeader(out, '*', 3*n)
		for _, k := range keys {
			if v, ok := m.data[k]; ok {
				out = appendBulk(appendBulk(appendBulk(out, k), ""), v)
			}
			h := m.hashes[k]
			for _, f := range sortedKeys(h) {
				out = appendBulk(appendBulk(appendBulk(out, k), f), h[f])
			}
		}
		return out
	}
	panic("mapModel: " + args[0])
}

// entries returns s's keys in the order its blocks hold them.
func entries(s *Server) []*entry {
	var all []*entry
	for _, blk := range s.blocks {
		all = append(all, blk...)
	}
	return all
}

// checkLayout reports the first way s's storage breaks its own rules:
// blocks of 1 to 2*blockLen keys, keys strictly ascending and none empty,
// fields strictly ascending by name, and every field's bytes exactly the
// MGETP triple of its key, name and value.
func checkLayout(s *Server) error {
	for b, blk := range s.blocks {
		if len(blk) == 0 || len(blk) > 2*blockLen {
			return fmt.Errorf("block %d of %d holds %d keys", b, len(s.blocks), len(blk))
		}
	}
	keys := entries(s)
	if len(s.index) != len(keys) {
		return fmt.Errorf("%d keys indexed, %d in blocks", len(s.index), len(keys))
	}
	for i, e := range keys {
		if s.index[e.key] != e {
			return fmt.Errorf("key %q is not indexed as the entry its block holds", e.key)
		}
		if i > 0 && keys[i-1].key >= e.key {
			return fmt.Errorf("keys %q and %q out of order", keys[i-1].key, e.key)
		}
		if e.plain == nil && len(e.fields) == 0 {
			return fmt.Errorf("key %q is stored with nothing under it", e.key)
		}
		for j := 1; j < len(e.fields); j++ {
			if e.fields[j-1].name >= e.fields[j].name {
				return fmt.Errorf("key %q: fields %q and %q out of order", e.key, e.fields[j-1].name, e.fields[j].name)
			}
		}
		fields := e.fields
		if e.plain != nil {
			if e.plain.name != "" {
				return fmt.Errorf("key %q: plain value named %q", e.key, e.plain.name)
			}
			fields = append([]*field{e.plain}, fields...)
		}
		for _, f := range fields {
			v, _, err := readBulkFrom(f.enc[f.val:])
			if err != nil {
				return fmt.Errorf("key %q field %q: value %q: %v", e.key, f.name, f.enc[f.val:], err)
			}
			if want := appendBulk(appendBulk(appendBulk(nil, e.key), f.name), v); !bytes.Equal(f.enc, want) {
				return fmt.Errorf("key %q field %q: stored %q, want %q", e.key, f.name, f.enc, want)
			}
		}
	}
	return nil
}

// readBulkFrom parses one bulk string at the head of b.
func readBulkFrom(b []byte) (v, rest []byte, err error) {
	i := bytes.Index(b, []byte("\r\n"))
	if i < 1 || b[0] != '$' {
		return nil, nil, fmt.Errorf("no bulk header")
	}
	n, err := strconv.Atoi(string(b[1:i]))
	if err != nil || n < 0 || len(b) < i+2+n+2 || string(b[i+2+n:i+4+n]) != "\r\n" {
		return nil, nil, fmt.Errorf("bad bulk")
	}
	return b[i+2 : i+2+n], b[i+4+n:], nil
}

// TestStoreAgainstMapModel drives seeded random commands — over keys that
// share prefixes, keys that are plain and hash at once, empty names and
// empty values — through dispatch and through mapModel, and wants the same
// reply to every one, and a layout that keeps its rules after every one.
func TestStoreAgainstMapModel(t *testing.T) {
	keys := []string{"", "a", "ab", "abc", "abd", "b", "ba", "armus:site:1", "armus:site:10", "armus:site:2"}
	prefixes := []string{"", "a", "ab", "abc", "abcd", "armus:site:", "armus:site:1", "b", "c", "~"}
	for seed := int64(1); seed <= 20; seed++ {
		againstMapModel(t, seed, keys, prefixes, 2000, 2000, 1)
	}
}

// TestBlocksAgainstMapModel is the model test over enough keys to split
// blocks, with a second half that only deletes until the store, and its
// blocks, are empty again.
func TestBlocksAgainstMapModel(t *testing.T) {
	keys := make([]string, 6*blockLen)
	for i := range keys {
		keys[i] = fmt.Sprintf("armus:sess:%d", i)
	}
	prefixes := []string{"", "armus:sess:", "armus:sess:1", "armus:sess:42", "armus:sess:9", "b"}
	for seed := int64(1); seed <= 4; seed++ {
		s, most := againstMapModel(t, seed, keys, prefixes, 20000, 8000, 97)
		if most < 4 || len(s.blocks) != 0 {
			t.Fatalf("seed %d: the store held at most %d blocks and ends with %d, want at least 4 and none", seed, most, len(s.blocks))
		}
	}
}

// againstMapModel runs steps seeded random commands over keys through a new
// store and a mapModel, wants the same reply from both to every one, and
// checks the store's layout every checkEvery steps. From step delFrom on,
// every write is a DEL instead. It returns the store and the most blocks it
// held.
func againstMapModel(t *testing.T, seed int64, keys, prefixes []string, steps, delFrom, checkEvery int) (*Server, int) {
	t.Helper()
	names := []string{"", "base", "delta", "d", "de", "z"}
	rng := rand.New(rand.NewSource(seed))
	s, m := new(Server), newMapModel()
	value := func() string {
		if rng.Intn(5) == 0 {
			return ""
		}
		return strings.Repeat(string(rune('a'+rng.Intn(26))), rng.Intn(40))
	}
	var got, want []byte
	most := 0
	for step := 0; step < steps; step++ {
		k, f := keys[rng.Intn(len(keys))], names[rng.Intn(len(names))]
		var args []string
		switch op := rng.Intn(20); {
		case op < 8 && step >= delFrom:
			args = []string{"DEL", k, keys[rng.Intn(len(keys))]}
		case op < 3:
			args = []string{"SET", k, value()}
		case op < 8:
			args = []string{"HSET", k, f, value()}
		case op < 10:
			args = []string{"HDEL", k, f}
		case op < 11:
			args = []string{"DEL", k, keys[rng.Intn(len(keys))]}
		case op < 12:
			args = []string{"GET", k}
		case op < 13:
			args = []string{"HGET", k, f}
		case op < 14:
			args = []string{"HGETALL", k}
		case op < 15:
			args = []string{"HLEN", k}
		case op < 17:
			args = []string{"KEYS", prefixes[rng.Intn(len(prefixes))]}
		default:
			args = []string{"MGETP", prefixes[rng.Intn(len(prefixes))]}
		}
		wire := make([][]byte, len(args))
		for i, a := range args {
			wire[i] = []byte(a)
		}
		got, want = s.dispatch(got[:0], wire), m.do(want[:0], args)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d step %d: %q answered\n%q\nwant\n%q", seed, step, args, got, want)
		}
		if step%checkEvery == 0 || step == steps-1 {
			if err := checkLayout(s); err != nil {
				t.Fatalf("seed %d step %d: after %q: %v", seed, step, args, err)
			}
		}
		most = max(most, len(s.blocks))
	}
	return s, most
}

// roundServer is a store as a three-site dist-round leaves it: each site's
// key holding a base and a delta.
func roundServer() (*Server, [][]byte, [][]byte) {
	s := new(Server)
	for site := 1; site <= 3; site++ {
		k := []byte("armus:site:" + strconv.Itoa(site))
		s.dispatch(nil, [][]byte{[]byte("HSET"), k, []byte("base"), bytes.Repeat([]byte{'b'}, 120)})
		s.dispatch(nil, [][]byte{[]byte("HSET"), k, []byte("delta"), bytes.Repeat([]byte{'d'}, 40)})
	}
	hset := [][]byte{[]byte("HSET"), []byte("armus:site:2"), []byte("delta"), bytes.Repeat([]byte{'e'}, 40)}
	mgetp := [][]byte{[]byte("MGETP"), []byte("armus:site:")}
	return s, hset, mgetp
}

// TestDispatchRoundZeroAlloc guards a warm verification round's store side:
// an HSET that overwrites a value of the same size and an MGETP over three
// keys allocate nothing (the map-of-maps store allocated 7 times).
func TestDispatchRoundZeroAlloc(t *testing.T) {
	s, hset, mgetp := roundServer()
	out := s.dispatch(s.dispatch(nil, hset), mgetp)
	if allocs := testing.AllocsPerRun(100, func() {
		out = s.dispatch(s.dispatch(out[:0], hset), mgetp)
	}); allocs != 0 {
		t.Fatalf("a warm HSET + MGETP allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkDispatchRound is the store's share of one verification round:
// dispatch of a warm HSET and an MGETP over three keys.
func BenchmarkDispatchRound(b *testing.B) {
	s, hset, mgetp := roundServer()
	var out []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = s.dispatch(s.dispatch(out[:0], hset), mgetp)
	}
}

// TestInPlaceWritesAgainstReads races HSET and SET, which overwrite a
// stored value in place and at varying lengths, against every read of that
// key. Each value is one letter repeated, so a reply copied while a write
// was under way shows as a mixed or mis-sized value (and -race sees it).
func TestInPlaceWritesAgainstReads(t *testing.T) {
	s := new(Server)
	k := []byte("armus:site:1")
	s.dispatch(nil, [][]byte{[]byte("SET"), k, []byte("a")})
	s.dispatch(nil, [][]byte{[]byte("HSET"), k, []byte("delta"), []byte("a")})
	uniform := func(v []byte) bool { return len(v) == 0 || bytes.Count(v, v[:1]) == len(v) }
	const writes = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			v := bytes.Repeat([]byte{byte('a' + i%26)}, 1+i%97)
			s.dispatch(nil, [][]byte{[]byte("HSET"), k, []byte("delta"), v})
			s.dispatch(nil, [][]byte{[]byte("SET"), k, v})
		}
	}()
	reads := [][][]byte{
		{[]byte("GET"), k},
		{[]byte("HGET"), k, []byte("delta")},
		{[]byte("HGETALL"), k},
		{[]byte("MGETP"), []byte("armus:")},
	}
	errs := make(chan error, len(reads))
	for _, cmd := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []byte
			for i := 0; i < writes; i++ {
				out = s.dispatch(out[:0], cmd)
				// Every reply is bulk strings behind at most one array
				// header; the values are the bulks that are not names.
				rest := out
				if rest[0] == '*' {
					rest = rest[bytes.Index(rest, []byte("\r\n"))+2:]
				}
				for len(rest) > 0 {
					v, r, err := readBulkFrom(rest)
					if err != nil {
						errs <- fmt.Errorf("%q answered %q: %v", cmd[0], out, err)
						return
					}
					if name := string(v); name != "delta" && name != string(k) && !uniform(v) {
						errs <- fmt.Errorf("%q answered a torn value %q", cmd[0], v)
						return
					}
					rest = r
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestShrunkValueGivesStorageBack overwrites a large value with a small
// one: the field then holds storage for the small one, not the large one's,
// and a value of about the same size is still written in place.
func TestShrunkValueGivesStorageBack(t *testing.T) {
	s := new(Server)
	k := []byte("armus:sess:a")
	hset := func(v []byte) *field {
		s.dispatch(nil, [][]byte{[]byte("HSET"), k, []byte("base"), v})
		return s.lookup(k).fields[0]
	}
	hset(bytes.Repeat([]byte{'b'}, 1<<20))
	f := hset([]byte("small"))
	if cap(f.enc) > 2*len(f.enc) {
		t.Fatalf("a %d-byte field keeps %d bytes of storage after its 1 MiB value shrank", len(f.enc), cap(f.enc))
	}
	enc := f.enc
	if f = hset([]byte("smaller")); &f.enc[0] != &enc[0] {
		t.Fatal("a value of about the same size was not written in place")
	}
}

// BenchmarkKeyChurn is what an HSET to a key the store does not hold
// costs (new), a DEL of such a key (del), and an HSET overwriting a value
// of a stored key (warm), in a store already holding n keys: a fleet's
// store keeps a key for every session it ever persisted. The keys written
// land next to stored ones all over the key space.
func BenchmarkKeyChurn(b *testing.B) {
	for _, n := range []int{1e3, 1e4, 1e5} {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("armus:sess:lg-avoid-c%d-s0-i0", i)
		}
		slices.Sort(keys) // insert in order, or filling a sorted list is quadratic
		val := bytes.Repeat([]byte{'v'}, 40)
		hset := func(k string) [][]byte { return [][]byte{[]byte("HSET"), []byte(k), []byte("base"), val} }
		s := new(Server)
		for _, k := range keys {
			s.dispatch(nil, hset(k))
		}
		var fresh, del, warm [1024][][]byte
		for i := range fresh {
			k := keys[i*n/len(fresh)]
			fresh[i], del[i], warm[i] = hset(k+"x"), [][]byte{[]byte("DEL"), []byte(k + "x")}, hset(k)
		}
		var out []byte
		run := func(cmds, undo *[1024][][]byte) func(*testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if i > 0 && i%len(cmds) == 0 && undo != nil {
						// Every fresh key has had the op: the other op
						// puts them back, untimed.
						b.StopTimer()
						for _, c := range undo {
							out = s.dispatch(out[:0], c)
						}
						b.StartTimer()
					}
					out = s.dispatch(out[:0], cmds[i%len(cmds)])
				}
			}
		}
		b.Run(fmt.Sprintf("keys=%d/new", n), run(&fresh, &del))
		for _, c := range del {
			s.dispatch(nil, c)
		}
		for _, c := range fresh {
			s.dispatch(nil, c)
		}
		b.Run(fmt.Sprintf("keys=%d/del", n), run(&del, &fresh))
		b.Run(fmt.Sprintf("keys=%d/warm", n), run(&warm, nil))
	}
}
