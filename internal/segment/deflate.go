package segment

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// The archive's compressor turns one block into one self-contained RFC 1951
// stream of literals: one final dynamic-Huffman block coded from the block's
// own byte counts, with no length or distance symbol, or stored blocks when
// those would not be larger. It looks for no matches. The repetition an
// LZ77 parse found in a status stream — a task's next status repeating its
// registrations — is what a re-block frame (internal/trace) already leaves
// out, and the tee archives every block it can as one; on that stream a
// match finder saved a sixth of the bytes at 2.3 times the encode time
// (DESIGN.md, "A compressor shaped to the stream").

// RFC 1951's limits, and the code's shape within them.
const (
	maxStored   = 65535 // the largest stored block
	maxCodeBits = 15    // longest literal code
	maxCLBits   = 7     // longest code-length code
	numLit      = 257   // 0..255 literals, 256 end of block
	endOfBlock  = 256
)

var (
	// clOrder is the order in which a dynamic block header sends the
	// code-length code's lengths; clExtra, the extra bits of its repeats.
	clOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	clExtra = [19]uint8{16: 2, 17: 3, 18: 7}
)

// blockEncoder is the compressor's state, under 6 KiB besides the output:
// one per goroutine compressing, the Store's for the writers it makes (its
// tee goroutine is the only one in the server).
type blockEncoder struct {
	freq  [numLit]uint32
	lens  [numLit]uint8
	codes [numLit]uint16 // bit-reversed, ready to write LSB first
	// the dynamic header's code lengths, run-length coded
	cgen    [numLit + 1]uint8 // symbol 0..18
	cgenX   [numLit + 1]uint8 // its extra bits' value
	clFreq  [19]uint32
	clLen   [19]uint8
	clCodes [19]uint16
	syms    [numLit]uint64 // Huffman scratch: freq<<16 | symbol
	weights [numLit]uint32
	out     []byte
}

// encode compresses src into one self-contained DEFLATE stream. The result
// is the encoder's own and valid until its next call.
func (e *blockEncoder) encode(src []byte) []byte {
	clear(e.freq[:])
	for _, b := range src {
		e.freq[b]++
	}
	e.freq[endOfBlock] = 1
	e.huffLengths(e.freq[:], e.lens[:], maxCodeBits)
	ncg := e.codegen()
	e.huffLengths(e.clFreq[:], e.clLen[:], maxCLBits)
	// A header sends code-length code lengths through the last nonzero one.
	hclen := 19
	for hclen > 4 && e.clLen[clOrder[hclen-1]] == 0 {
		hclen--
	}

	size := 3 + 5 + 5 + 4 + 3*hclen // in bits
	for s, f := range e.clFreq {
		size += int(f) * int(e.clLen[s]+clExtra[s])
	}
	for s, f := range e.freq {
		size += int(f) * int(e.lens[s])
	}
	stored := len(src) + 5*max(1, (len(src)+maxStored-1)/maxStored)
	if (size+7)/8 >= stored {
		return e.writeStored(src, stored)
	}
	return e.writeLiterals(src, hclen, ncg, (size+7)/8)
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

// codegen run-length codes the header's code lengths — the 257 literal
// ones, then one distance code of length 0: the block has no distances —
// into e.cgen/e.cgenX, counting the symbols in e.clFreq; it returns their
// count.
func (e *blockEncoder) codegen() int {
	var all [numLit + 1]uint8
	copy(all[:], e.lens[:])
	n := len(all)
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

// writeLiterals writes src as one final dynamic-Huffman block of size
// bytes, every byte a literal.
func (e *blockEncoder) writeLiterals(src []byte, hclen, ncg, size int) []byte {
	canonical(e.lens[:], e.codes[:])
	canonical(e.clLen[:], e.clCodes[:])
	// A 64-bit accumulator holding fewer than 8 bits between writes, stored
	// whole after each one: any write of up to 56 bits is one store.
	e.out = slices.Grow(e.out[:0], size+8)
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
	// HLIT and HDIST 0: 257 literal/length codes and one distance code.
	put(uint64(hclen-4)<<10, 14)
	for _, s := range clOrder[:hclen] {
		put(uint64(e.clLen[s]), 3)
	}
	for i, s := range e.cgen[:ncg] {
		put(uint64(e.clCodes[s])|uint64(e.cgenX[i])<<e.clLen[s], uint(e.clLen[s]+clExtra[s]))
	}
	// Three codes of at most 15 bits are one write.
	codes, lens := &e.codes, &e.lens
	i := 0
	for ; i+3 <= len(src); i += 3 {
		a, b, c := src[i], src[i+1], src[i+2]
		v, n := uint64(codes[a]), uint(lens[a])
		v |= uint64(codes[b]) << n
		n += uint(lens[b])
		v |= uint64(codes[c]) << n
		put(v, n+uint(lens[c]))
	}
	for _, b := range src[i:] {
		put(uint64(codes[b]), uint(lens[b]))
	}
	put(uint64(codes[endOfBlock]), uint(lens[endOfBlock]))
	if nacc > 0 {
		pos++
	}
	return out[:pos]
}
