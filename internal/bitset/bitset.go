// Package bitset provides the packed mask representation behind the
// auditing engine's per-template explained-row masks. A Bits holds one bit
// per log row in []uint64 words, and the mask combinators the auditor and
// the experiments need (union, popcount) run word-at-a-time instead of
// element-wise, so summarizing a hospital-scale audit (the "All" union
// rows, the explained fraction, the unexplained scan) costs one machine
// word per 64 accesses. It is the one mask type: every classifier writes
// its verdicts into a Bits the caller passes in.
//
// The compact-representation lesson comes from factorised query engines
// (FDB): at scale the shape of the intermediate result dominates the
// algorithm that produces it. Here the intermediate results are boolean
// masks, and packing them is what makes the incremental append path cheap —
// extending a cached mask shares the packed prefix and touches only the
// words the new rows land in.
//
// # Concurrency
//
// A Bits is not synchronized. The one concurrent pattern the engine uses is
// several goroutines calling Set on disjoint row ranges of one Bits whose
// interior boundaries are multiples of 64: aligned ranges touch disjoint
// words, so no two writers share a word (the core layer aligns its mask
// shards for exactly this reason). Everything else follows the usual rule:
// publish, then read.
package bitset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// Bits is a fixed-length sequence of bits packed 64 to a word. The zero
// value is an empty bitset; use New (or Grow) for a sized one. Bits beyond
// Len in the final word are always zero — every operation maintains the
// invariant, which is what lets Count and Or run without masking.
type Bits struct {
	n     int
	words []uint64
}

// wordsFor returns the word count backing n bits.
func wordsFor(n int) int { return (n + 63) / 64 }

// New returns a Bits of length n with every bit clear.
func New(n int) *Bits {
	if n < 0 {
		panic("bitset: negative length")
	}
	return &Bits{n: n, words: make([]uint64, wordsFor(n))}
}

// Len returns the number of bits.
func (b *Bits) Len() int { return b.n }

// Get reports bit i. It panics when i is out of range.
func (b *Bits) Get(i int) bool {
	if i < 0 || i >= b.n {
		panic("bitset: index out of range")
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Grow extends the bitset to length n, clearing the new bits; the existing
// prefix is preserved. Growing to a smaller or equal length is a no-op —
// the audited log is append-only, so masks never shrink.
func (b *Bits) Grow(n int) {
	if n <= b.n {
		return
	}
	w := wordsFor(n)
	if w > cap(b.words) {
		words := make([]uint64, w, w+w/4)
		copy(words, b.words)
		b.words = words
	} else {
		b.words = b.words[:w]
	}
	b.n = n
}

// Clone returns an independent copy. Cloning is a word-level copy — the
// cheap operation behind copy-on-extend mask refreshes.
func (b *Bits) Clone() *Bits {
	out := &Bits{n: b.n, words: make([]uint64, len(b.words))}
	copy(out.words, b.words)
	return out
}

// Or sets every bit of o in b, growing b if o is longer: b |= o with the
// shorter operand zero-extended.
func (b *Bits) Or(o *Bits) {
	b.Grow(o.n)
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// Count returns the number of set bits (population count, word at a time).
func (b *Bits) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// clearTail zeroes the bits of the last word beyond Len, the invariant
// Count and Or rely on. Only operations that could set tail bits call it.
func (b *Bits) clearTail() {
	if r := uint(b.n) & 63; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << r) - 1
	}
}

// Set sets bit i. It panics when i is out of range.
func (b *Bits) Set(i int) {
	if i < 0 || i >= b.n {
		panic("bitset: index out of range")
	}
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// FromBools packs a []bool mask.
func FromBools(vals []bool) *Bits {
	b := New(len(vals))
	for i, v := range vals {
		if v {
			b.Set(i)
		}
	}
	return b
}

// maxSerializedBits bounds the declared length ReadFrom will accept (one
// billion rows ≈ 120 MB of words). The limit exists so a corrupt or
// adversarial header cannot make ReadFrom attempt an absurd allocation; it
// is far above any log the engine can hold in memory anyway.
const maxSerializedBits = 1 << 30

// readChunkWords is how many words ReadFrom reads at a time (512 KiB): a
// mask of up to 4M bits is read in one piece.
const readChunkWords = 1 << 16

// WriteTo serializes the bitset: a uvarint bit length followed by the
// packed words in little-endian order. The format is the storage layer's
// warm-start mask encoding; ReadFrom restores it exactly. It implements
// io.WriterTo.
func (b *Bits) WriteTo(w io.Writer) (int64, error) {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(b.n))
	written, err := w.Write(hdr[:n])
	total := int64(written)
	if err != nil {
		return total, err
	}
	buf := make([]byte, 8*len(b.words))
	for i, word := range b.words {
		binary.LittleEndian.PutUint64(buf[8*i:], word)
	}
	written, err = w.Write(buf)
	return total + int64(written), err
}

// ReadFrom deserializes a bitset previously written by WriteTo, replacing
// the receiver's contents. It implements io.ReaderFrom. A malformed stream
// — a truncated word list, an absurd declared length, or set bits beyond
// the declared length (the tail-zero invariant every operation relies on) —
// is an error, and the receiver is left unusable; callers restoring cached
// state should discard the snapshot rather than trust a partial mask.
func (b *Bits) ReadFrom(r io.Reader) (int64, error) {
	br := &countingByteReader{r: r}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return br.count, fmt.Errorf("bitset: reading length: %w", err)
	}
	if n > maxSerializedBits {
		return br.count, fmt.Errorf("bitset: declared length %d exceeds limit", n)
	}
	// The words are read a bounded chunk at a time, so a corrupt length
	// cannot allocate more than the stream actually holds.
	nw := wordsFor(int(n))
	words := make([]uint64, 0, min(nw, readChunkWords))
	buf := make([]byte, 8*min(nw, readChunkWords))
	total := br.count
	for len(words) < nw {
		k := min(nw-len(words), readChunkWords)
		read, err := io.ReadFull(r, buf[:8*k])
		total += int64(read)
		if err != nil {
			return total, fmt.Errorf("bitset: reading %d words: %w", nw, err)
		}
		for i := 0; i < k; i++ {
			words = append(words, binary.LittleEndian.Uint64(buf[8*i:]))
		}
	}
	b.n = int(n)
	b.words = words
	if r := uint(b.n) & 63; r != 0 && len(b.words) > 0 {
		if b.words[len(b.words)-1]&^((1<<r)-1) != 0 {
			return total, errors.New("bitset: set bits beyond declared length")
		}
	}
	return total, nil
}

// countingByteReader adapts an io.Reader to io.ByteReader for ReadUvarint
// while tracking bytes consumed, so ReadFrom can report an exact count.
type countingByteReader struct {
	r     io.Reader
	count int64
}

func (c *countingByteReader) ReadByte() (byte, error) {
	var one [1]byte
	n, err := io.ReadFull(c.r, one[:])
	c.count += int64(n)
	return one[0], err
}

// Union returns the word-level OR of the given bitsets (nil for none), each
// zero-extended to the longest length.
func Union(masks ...*Bits) *Bits {
	if len(masks) == 0 {
		return nil
	}
	out := masks[0].Clone()
	for _, m := range masks[1:] {
		out.Or(m)
	}
	return out
}
