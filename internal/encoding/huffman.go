package encoding

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

// Canonical Huffman coder over a dense alphabet of non-negative int symbols.
// The encoded layout is:
//
//	u32  alphabet size A
//	u32  symbol count N
//	A×u8 code lengths (0 = unused symbol), lengths ≤ 57
//	payload bits, LSB-first
//
// Code lengths are capped via the standard length-limiting fallback (rebuild
// with scaled frequencies) which in practice never triggers for quantizer
// alphabets but keeps the coder total.

const maxCodeLen = 57

type huffNode struct {
	freq        int64
	sym         int // -1 for internal
	left, right *huffNode
}

type huffHeap []*huffNode

func (h huffHeap) Len() int { return len(h) }
func (h huffHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].sym < h[j].sym // deterministic tie-break
}
func (h huffHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *huffHeap) Push(x interface{}) { *h = append(*h, x.(*huffNode)) }
func (h *huffHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// buildCodeLengths returns per-symbol code lengths for the given frequency
// table (len = alphabet size). Symbols with zero frequency get length 0.
func buildCodeLengths(freq []int64) []uint8 {
	lengths := make([]uint8, len(freq))
	h := &huffHeap{}
	for s, f := range freq {
		if f > 0 {
			heap.Push(h, &huffNode{freq: f, sym: s})
		}
	}
	switch h.Len() {
	case 0:
		return lengths
	case 1:
		lengths[(*h)[0].sym] = 1
		return lengths
	}
	for h.Len() > 1 {
		a := heap.Pop(h).(*huffNode)
		b := heap.Pop(h).(*huffNode)
		heap.Push(h, &huffNode{freq: a.freq + b.freq, sym: -1, left: a, right: b})
	}
	root := heap.Pop(h).(*huffNode)
	var walk func(n *huffNode, depth uint8)
	walk = func(n *huffNode, depth uint8) {
		if n.sym >= 0 {
			if depth == 0 {
				depth = 1
			}
			lengths[n.sym] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	// Length-limit fallback: scale frequencies down until max length fits.
	for maxLen(lengths) > maxCodeLen {
		for i := range freq {
			if freq[i] > 1 {
				freq[i] = (freq[i] + 1) / 2
			}
		}
		return buildCodeLengths(freq)
	}
	return lengths
}

func maxLen(lengths []uint8) uint8 {
	var m uint8
	for _, l := range lengths {
		if l > m {
			m = l
		}
	}
	return m
}

// canonicalCodes assigns canonical codes from lengths. Returned codes are
// bit-reversed so they can be emitted LSB-first and decoded by peeking.
func canonicalCodes(lengths []uint8) []uint64 {
	type sl struct {
		sym int
		l   uint8
	}
	var syms []sl
	for s, l := range lengths {
		if l > 0 {
			syms = append(syms, sl{s, l})
		}
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].l != syms[j].l {
			return syms[i].l < syms[j].l
		}
		return syms[i].sym < syms[j].sym
	})
	codes := make([]uint64, len(lengths))
	var code uint64
	var prev uint8
	for _, e := range syms {
		code <<= (e.l - prev)
		prev = e.l
		codes[e.sym] = bits.Reverse64(code) >> (64 - e.l)
		code++
	}
	return codes
}

// HuffmanEncode encodes syms, each in [0, alphabet). It is deterministic.
func HuffmanEncode(syms []int, alphabet int) ([]byte, error) {
	if alphabet <= 0 {
		return nil, fmt.Errorf("encoding: alphabet must be positive, got %d", alphabet)
	}
	freq := make([]int64, alphabet)
	for _, s := range syms {
		if s < 0 || s >= alphabet {
			return nil, fmt.Errorf("encoding: symbol %d outside alphabet [0,%d)", s, alphabet)
		}
		freq[s]++
	}
	lengths := buildCodeLengths(freq)
	codes := canonicalCodes(lengths)

	// The length table is mostly zeros for sparse alphabets; DEFLATE it so
	// large quantizer alphabets do not dominate small payloads.
	lengthsC, err := Deflate(lengths, 6)
	if err != nil {
		return nil, err
	}
	head := make([]byte, 8)
	binary.LittleEndian.PutUint32(head[0:], uint32(alphabet))
	binary.LittleEndian.PutUint32(head[4:], uint32(len(syms)))
	out := PutSection(head, lengthsC)

	w := NewBitWriter(len(syms) / 2)
	for _, s := range syms {
		w.WriteBits(codes[s], uint(lengths[s]))
	}
	return append(out, w.Bytes()...), nil
}

// huffDecoder is a table-driven canonical decoder.
type huffDecoder struct {
	lengths []uint8
	// fast table for codes up to fastBits
	fast []int32 // packed: sym<<8 | len; -1 when not covered
	maxL uint8
	slow map[uint64]int // key: code | len<<58 for long codes
}

const fastBits = 11

func newHuffDecoder(lengths []uint8) *huffDecoder {
	codes := canonicalCodes(lengths)
	d := &huffDecoder{lengths: lengths, maxL: maxLen(lengths)}
	d.fast = make([]int32, 1<<fastBits)
	for i := range d.fast {
		d.fast[i] = -1
	}
	d.slow = make(map[uint64]int)
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		if l <= fastBits {
			// Fill all fast entries whose low l bits equal the code.
			step := 1 << l
			for idx := int(codes[s]); idx < 1<<fastBits; idx += step {
				d.fast[idx] = int32(s)<<8 | int32(l)
			}
		} else {
			d.slow[codes[s]|uint64(l)<<58] = s
		}
	}
	return d
}

// decode reads one symbol from r.
func (d *huffDecoder) decode(r *BitReader) (int, error) {
	// Peek up to maxL bits without a peek API: read incrementally.
	var code uint64
	var n uint
	for n < uint(d.maxL) {
		// Try fast path once we have fastBits (or all remaining bits).
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code |= b << n
		n++
		if n <= fastBits {
			e := d.fast[code&((1<<fastBits)-1)]
			if e >= 0 && uint(e&0xff) == n {
				return int(e >> 8), nil
			}
		} else if s, ok := d.slow[code|uint64(n)<<58]; ok {
			return s, nil
		}
	}
	return 0, fmt.Errorf("%w: invalid huffman code", ErrCorrupt)
}

// HuffmanDecode reverses HuffmanEncode for a stream whose alphabet is at
// most maxAlphabet symbols. The length table, and the decoder built from
// it, are sized by the alphabet, so a caller whose format bounds its
// alphabet passes that bound and a forged header cannot size them past
// it.
func HuffmanDecode(data []byte, maxAlphabet int) ([]int, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: huffman header truncated", ErrCorrupt)
	}
	alphabet := int(binary.LittleEndian.Uint32(data[0:]))
	count := int(binary.LittleEndian.Uint32(data[4:]))
	if alphabet <= 0 || alphabet > maxAlphabet || count < 0 || count > 1<<31 {
		return nil, fmt.Errorf("%w: implausible huffman header (A=%d N=%d)", ErrCorrupt, alphabet, count)
	}
	lengthsC, n, err := GetSection(data[8:])
	if err != nil {
		return nil, err
	}
	lengthsRaw, err := Inflate(lengthsC, int64(alphabet))
	if err != nil {
		return nil, err
	}
	if len(lengthsRaw) != alphabet {
		return nil, fmt.Errorf("%w: huffman length table size %d, want %d", ErrCorrupt, len(lengthsRaw), alphabet)
	}
	lengths := make([]uint8, alphabet)
	copy(lengths, lengthsRaw)
	coded := 0
	for _, l := range lengths {
		if l > maxCodeLen {
			return nil, fmt.Errorf("%w: code length %d too large", ErrCorrupt, l)
		}
		if l > 0 {
			coded++
		}
	}
	payloadOff := 8 + n
	if count == 0 {
		return []int{}, nil
	}
	// HuffmanEncode codes only the symbols the stream holds, so a table
	// that codes more than count symbols is forged; refusing it bounds the
	// decoder's long-code map by the count.
	if coded == 0 || coded > count {
		return nil, fmt.Errorf("%w: %d coded symbols for %d in the stream", ErrCorrupt, coded, count)
	}
	// Every code is at least one bit long, so the payload bounds the count
	// before it sizes anything.
	payload := data[payloadOff:]
	if count > 8*len(payload) {
		return nil, fmt.Errorf("%w: %d huffman symbols in %d payload bytes", ErrCorrupt, count, len(payload))
	}
	dec := newHuffDecoder(lengths)
	r := NewBitReader(payload)
	out := make([]int, count)
	for i := 0; i < count; i++ {
		s, err := dec.decode(r)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}
