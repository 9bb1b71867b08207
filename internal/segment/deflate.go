package segment

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
)

// The archive's compressor turns one block into one self-contained RFC 1951
// stream. Its parse is greedy LZ77 that tries the last match distance
// before a hash lookup, which suits a status stream: consecutive statuses
// of one task differ only in a few phase varints, so the match after one
// against the task's previous status is mostly at the same distance, a byte
// or two on. The hash table keeps positions only and is cleared per block,
// so no block refers to another. Symbols are counted while tokenising; the
// block is one final dynamic-Huffman block, or stored blocks when those
// would not be larger.

// RFC 1951's limits, and the parser's choices within them.
const (
	minMatch    = 4 // the parser's shortest match; DEFLATE's is 3
	maxMatch    = 258
	maxDistance = 32768
	maxStored   = 65535 // the largest stored block
	maxCodeBits = 15    // longest literal/length and distance code
	maxCLBits   = 7     // longest code-length code
	hashBits    = 14
	numLitLen   = 286 // 0..255 literals, 256 end of block, 257..285 lengths
	numDist     = 30
	endOfBlock  = 256
)

var (
	lengthBase  = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase    = [numDist]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra   = [numDist]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	// clOrder is the order in which a dynamic block header sends the
	// code-length code's lengths; clExtra, the extra bits of its repeats.
	clOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	clExtra = [19]uint8{16: 2, 17: 3, 18: 7}

	// lengthCode maps length-3 to its length code (0..28); 258 has code
	// 28 of its own, not code 27 with every extra bit set.
	lengthCode = func() (t [256]uint8) {
		for c := 0; c < 28; c++ {
			for l := lengthBase[c]; l < lengthBase[c]+1<<lengthExtra[c]; l++ {
				t[l-3] = uint8(c)
			}
		}
		t[255] = 28
		return t
	}()
)

// distCode maps distance-1 (0..32767) to its distance code (0..29).
func distCode(d uint32) uint32 {
	if d < 4 {
		return d
	}
	n := uint32(bits.Len32(d)) - 1 // d's top bit; the code pairs share it
	return 2*n + d>>(n-1)&1
}

// blockEncoder is the compressor's state, about 70 KiB plus a 4-byte token
// per input byte: one per goroutine compressing at a time, from encoders
// (the Store's tee goroutine is the only one in the server).
type blockEncoder struct {
	table     [1 << hashBits]uint32 // last position hashed to each slot
	tokens    []uint32              // a literal byte, or dist<<8 | length-3
	litFreq   [numLitLen]uint32
	distFreq  [numDist]uint32
	litLen    [numLitLen]uint8
	distLen   [numDist]uint8
	litCodes  [numLitLen]uint16 // bit-reversed, ready to write LSB first
	distCodes [numDist]uint16
	// the dynamic header's code lengths, run-length coded
	cgen    [numLitLen + numDist]uint8 // symbol 0..18
	cgenX   [numLitLen + numDist]uint8 // its extra bits' value
	clFreq  [19]uint32
	clLen   [19]uint8
	clCodes [19]uint16
	syms    [numLitLen]uint64 // Huffman scratch: freq<<16 | symbol
	weights [numLitLen]uint32
	out     []byte
}

var encoders = sync.Pool{New: func() any { return new(blockEncoder) }}

// encode compresses src into one self-contained DEFLATE stream. The result
// is the encoder's own and valid until its next call.
func (e *blockEncoder) encode(src []byte) []byte {
	e.tokenize(src)
	e.huffLengths(e.litFreq[:], e.litLen[:], maxCodeBits)
	e.huffLengths(e.distFreq[:], e.distLen[:], maxCodeBits)
	// A header sends code lengths through the last nonzero one.
	hlit, hdist, hclen := numLitLen, numDist, 19
	for hlit > 257 && e.litLen[hlit-1] == 0 {
		hlit--
	}
	for hdist > 1 && e.distLen[hdist-1] == 0 {
		hdist--
	}
	ncg := e.codegen(hlit, hdist)
	e.huffLengths(e.clFreq[:], e.clLen[:], maxCLBits)
	for hclen > 4 && e.clLen[clOrder[hclen-1]] == 0 {
		hclen--
	}

	size := 3 + 5 + 5 + 4 + 3*hclen // in bits
	for s, f := range e.clFreq {
		size += int(f) * int(e.clLen[s]+clExtra[s])
	}
	for s, f := range e.litFreq {
		size += int(f) * int(e.litLen[s])
	}
	for c, x := range lengthExtra {
		size += int(e.litFreq[257+c]) * int(x)
	}
	for c, f := range e.distFreq {
		size += int(f) * int(e.distLen[c]+distExtra[c])
	}
	stored := len(src) + 5*max(1, (len(src)+maxStored-1)/maxStored)
	if (size+7)/8 >= stored {
		return e.writeStored(src, stored)
	}
	return e.writeDynamic(hlit, hdist, hclen, ncg, (size+7)/8)
}

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

func hash4(u uint32) uint32 { return (u * 0x1e35a7bd) >> (32 - hashBits) }

// tokenize parses src into e.tokens and counts every symbol the tokens
// will be written as, the end-of-block code included.
func (e *blockEncoder) tokenize(src []byte) {
	clear(e.table[:])
	clear(e.litFreq[:])
	clear(e.distFreq[:])
	if cap(e.tokens) < len(src) {
		e.tokens = make([]uint32, len(src))
	}
	toks := e.tokens[:len(src)]
	nt, lit, rep := 0, 0, 0
	literals := func(to int) {
		for _, b := range src[lit:to] {
			toks[nt] = uint32(b)
			e.litFreq[b]++
			nt++
		}
	}
	for i := 0; i+minMatch <= len(src); {
		cur := load32(src, i)
		h := hash4(cur)
		d := rep
		if d == 0 || load32(src, i-d) != cur {
			c := int(e.table[h])
			if d = i - c; d == 0 || d > maxDistance || load32(src, c) != cur {
				e.table[h] = uint32(i)
				i++
				continue
			}
		}
		e.table[h] = uint32(i)
		n := minMatch + matchLen(src, i+minMatch-d, i+minMatch, min(maxMatch, len(src)-i)-minMatch)
		for i > lit && i > d && n < maxMatch && src[i-1] == src[i-1-d] {
			i--
			n++
		}
		literals(i)
		toks[nt] = uint32(d)<<8 | uint32(n-3)
		nt++
		e.litFreq[257+int(lengthCode[n-3])]++
		e.distFreq[distCode(uint32(d-1))]++
		rep = d
		i += n
		lit = i
	}
	literals(len(src))
	e.litFreq[endOfBlock] = 1
	e.tokens = toks[:nt]
}

// matchLen is the length of the common prefix of src[a:] and src[b:], at
// most limit, with b+limit <= len(src); compared 8 bytes at a time.
func matchLen(src []byte, a, b, limit int) int {
	n := 0
	for ; n+8 <= limit; n += 8 {
		if x := binary.LittleEndian.Uint64(src[b+n:]) ^ binary.LittleEndian.Uint64(src[a+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < limit && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// huffLengths sets lens to the code lengths of a Huffman code for freq
// whose longest code is at most limit bits. The code is complete, as
// every inflater requires: when fewer than two symbols occur, unused ones
// are given codes too.
func (e *blockEncoder) huffLengths(freq []uint32, lens []uint8, limit int) {
	clear(lens)
	syms := e.syms[:0]
	for s, f := range freq {
		if f > 0 {
			syms = append(syms, uint64(f)<<16|uint64(s))
		}
	}
	for s := 0; len(syms) < 2; s++ {
		if freq[s] == 0 {
			syms = append(syms, uint64(s))
		}
	}
	slices.Sort(syms)
	w := e.weights[:len(syms)]
	for i, v := range syms {
		w[i] = uint32(v >> 16)
	}
	minRedundancy(w)
	// Clamp to limit, then restore Kraft's equality: each step drops one
	// code of the longest length and splits a shorter one in two.
	var count [maxCodeBits + 1]int
	for _, d := range w {
		count[min(int(d), limit)]++
	}
	total := 0
	for l := 1; l <= limit; l++ {
		total += count[l] << (limit - l)
	}
	for ; total > 1<<limit; total-- {
		count[limit]--
		for l := limit - 1; l > 0; l-- {
			if count[l] > 0 {
				count[l]--
				count[l+1] += 2
				break
			}
		}
	}
	// The most frequent symbols, at the end of syms, get the shortest codes.
	j := len(syms)
	for l := 1; l <= limit; l++ {
		for k := count[l]; k > 0; k-- {
			j--
			lens[syms[j]&0xffff] = uint8(l)
		}
	}
}

// minRedundancy replaces the ascending weights w (at least two) with their
// Huffman code lengths, in place (Moffat and Katajainen, "In-place
// calculation of minimum-redundancy codes", 1995).
func minRedundancy(w []uint32) {
	n := len(w)
	w[0] += w[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || w[root] < w[leaf] {
			w[next] = w[root]
			w[root] = uint32(next)
			root++
		} else {
			w[next] = w[leaf]
			leaf++
		}
		if leaf >= n || (root < next && w[root] < w[leaf]) {
			w[next] += w[root]
			w[root] = uint32(next)
			root++
		} else {
			w[next] += w[leaf]
			leaf++
		}
	}
	w[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		w[next] = w[w[next]] + 1
	}
	avail, inUse, depth := 1, 0, uint32(0)
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && w[root] == depth {
			inUse++
			root--
		}
		for ; avail > inUse; avail-- {
			w[next] = depth
			next--
		}
		avail, inUse = 2*inUse, 0
		depth++
	}
}

// canonical assigns the canonical code of RFC 1951 §3.2.2 to every symbol
// with a length, bit-reversed since DEFLATE sends codes from their top bit
// into a stream packed from the bottom.
func canonical(lens []uint8, codes []uint16) {
	var count, next [maxCodeBits + 1]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	code := uint16(0)
	for l := 1; l <= maxCodeBits; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for s, l := range lens {
		if l > 0 {
			codes[s] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
}

// codegen run-length codes the hlit literal/length and hdist distance
// code lengths, as one sequence, into e.cgen/e.cgenX, counting the symbols
// in e.clFreq; it returns their count.
func (e *blockEncoder) codegen(hlit, hdist int) int {
	var all [numLitLen + numDist]uint8
	n := copy(all[:], e.litLen[:hlit])
	n += copy(all[n:], e.distLen[:hdist])
	k := 0
	clear(e.clFreq[:])
	emit := func(s, x uint8) {
		e.cgen[k], e.cgenX[k] = s, x
		e.clFreq[s]++
		k++
	}
	for i := 0; i < n; {
		v, run := all[i], 1
		for i+run < n && all[i+run] == v {
			run++
		}
		i += run
		if v == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, uint8(min(run, 138)-11))
			}
			if run >= 3 {
				emit(17, uint8(run-3))
				run = 0
			}
		} else {
			emit(v, 0)
			for run--; run >= 3; run -= min(run, 6) {
				emit(16, uint8(min(run, 6)-3))
			}
		}
		for ; run > 0; run-- {
			emit(v, 0)
		}
	}
	return k
}

// writeStored writes src as stored blocks of at most maxStored bytes, the
// last one final; size is their total length.
func (e *blockEncoder) writeStored(src []byte, size int) []byte {
	out := slices.Grow(e.out[:0], size)
	for {
		n := min(len(src), maxStored)
		final := byte(0)
		if n == len(src) {
			final = 1
		}
		out = append(out, final, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
		out = append(out, src[:n]...)
		if src = src[n:]; final == 1 {
			e.out = out
			return out
		}
	}
}

// writeDynamic writes the tokens as one final dynamic-Huffman block of
// size bytes.
func (e *blockEncoder) writeDynamic(hlit, hdist, hclen, ncg, size int) []byte {
	canonical(e.litLen[:], e.litCodes[:])
	canonical(e.distLen[:], e.distCodes[:])
	canonical(e.clLen[:], e.clCodes[:])
	if cap(e.out) < size+8 {
		e.out = make([]byte, size+8)
	}
	// A 64-bit accumulator holding fewer than 8 bits between writes, stored
	// whole after each one: any write of up to 56 bits is one store.
	out := e.out[:size+8]
	var acc uint64
	nacc, pos := uint(0), 0
	put := func(v uint64, n uint) {
		acc |= v << nacc
		nacc += n
		binary.LittleEndian.PutUint64(out[pos:], acc)
		pos += int(nacc >> 3)
		acc >>= nacc &^ 7
		nacc &= 7
	}
	put(1|2<<1, 3) // BFINAL, BTYPE 10: final, dynamic Huffman
	put(uint64(hlit-257)|uint64(hdist-1)<<5|uint64(hclen-4)<<10, 14)
	for _, s := range clOrder[:hclen] {
		put(uint64(e.clLen[s]), 3)
	}
	for i, s := range e.cgen[:ncg] {
		put(uint64(e.clCodes[s])|uint64(e.cgenX[i])<<e.clLen[s], uint(e.clLen[s]+clExtra[s]))
	}
	for _, t := range e.tokens {
		if t < 256 {
			put(uint64(e.litCodes[t]), uint(e.litLen[t]))
			continue
		}
		l, d := t&0xff, t>>8-1
		lc, dc := lengthCode[l], distCode(d)
		v, n := uint64(e.litCodes[257+int(lc)]), uint(e.litLen[257+int(lc)])
		v |= uint64(l+3-uint32(lengthBase[lc])) << n
		n += uint(lengthExtra[lc])
		v |= uint64(e.distCodes[dc]) << n
		n += uint(e.distLen[dc])
		v |= uint64(d+1-uint32(distBase[dc])) << n
		n += uint(distExtra[dc])
		put(v, n)
	}
	put(uint64(e.litCodes[endOfBlock]), uint(e.litLen[endOfBlock]))
	if nacc > 0 {
		pos++
	}
	return out[:pos]
}
