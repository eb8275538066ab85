package query

import (
	"sync"

	"repro/internal/relation"
)

// This file is the engine's dense-ID layer. Every join value a plan can meet
// — the keys and members of a DISTINCT projection, an exists column, the
// audited log's patients and users — is interned once into a uint32, and the
// compiled ops (csr, idSet) and the per-row walk touch only those IDs. IDs
// are handed out in encounter order and never change; an ID says nothing
// about its value's rank, so every posting list is kept in Value order
// explicitly (see lowered) — where a walk stops (its first witness, or the
// posting that fills its set), and so how many postings it consumes, must
// not depend on the order maps happened to be iterated in.

// dict is the engine's value dictionary. vals is append-only, so a slice
// header read under the lock stays a valid prefix afterwards.
type dict struct {
	mu   sync.RWMutex
	ids  map[relation.Value]uint32
	vals []relation.Value
}

// intern returns v's ID, assigning the next one on first sight. The caller
// holds d.mu for writing.
func (d *dict) intern(v relation.Value) uint32 {
	id, ok := d.ids[v]
	if !ok {
		id = uint32(len(d.vals))
		d.ids[v] = id
		d.vals = append(d.vals, v)
	}
	return id
}

// values returns the reverse mapping (ID -> value) for every ID assigned so
// far; its length is the dictionary size.
func (d *dict) values() []relation.Value {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.vals
}

// csr is a pairs relation over IDs in compressed-sparse-row form: the
// posting list of id is to[off[id]:off[id+1]], in Value order. An ID the
// dictionary assigned after the relation was built lies beyond off and has
// no postings.
type csr struct {
	off, to []uint32
}

func (c *csr) list(id uint32) []uint32 {
	if int(id)+1 >= len(c.off) {
		return nil
	}
	return c.to[c.off[id]:c.off[id+1]]
}

// idSet is a bitset over IDs; IDs beyond its length are absent.
type idSet []uint64

func newIDSet(n int) idSet { return make(idSet, (n+63)/64) }

func (s idSet) add(id uint32) { s[id>>6] |= 1 << (id & 63) }

func (s idSet) has(id uint32) bool {
	return int(id>>6) < len(s) && s[id>>6]&(1<<(id&63)) != 0
}

// baseKey names one lowered projection of a table: the DISTINCT (a, b)
// pairs, or with b empty the distinct values of column a.
type baseKey struct{ table, a, b string }

// base is one lowered projection, valid while the table it was read from is
// still t at the same version. Exactly one of pairs and set is non-nil.
type base struct {
	t       *relation.Table
	version uint64
	pairs   *csr
	set     idSet
}

// lowered returns the ID form of the projection k of t, lowering it on first
// use and again once t has grown or was replaced; every plan compiled in
// between shares the one copy, the way DistinctPairs shares its map.
func (eng *engine) lowered(t *relation.Table, k baseKey) *base {
	eng.baseMu.Lock()
	defer eng.baseMu.Unlock()
	if b := eng.bases[k]; b != nil && b.t == t && b.version == t.Version() {
		return b
	}
	b := &base{t: t, version: t.Version()}
	d := &eng.dict
	d.mu.Lock()
	// The dictionary must hold every value before a set or off can be sized,
	// so each branch interns in one pass over the table's map and fills in
	// another.
	if k.b == "" {
		idx := t.Index(k.a)
		for v := range idx {
			d.intern(v)
		}
		b.set = newIDSet(len(d.vals))
		for v := range idx {
			b.set.add(d.ids[v])
		}
	} else {
		m := t.DistinctPairs(k.a, k.b)
		for v, ws := range m {
			d.intern(v)
			for _, w := range ws {
				d.intern(w)
			}
		}
		c := &csr{off: make([]uint32, len(d.vals)+1)}
		for v, ws := range m {
			c.off[d.ids[v]+1] = uint32(len(ws))
		}
		for i := 1; i < len(c.off); i++ {
			c.off[i] += c.off[i-1]
		}
		c.to = make([]uint32, c.off[len(c.off)-1])
		for v, ws := range m {
			list := c.to[c.off[d.ids[v]]:]
			for i, w := range ws { // ws is in Value order and list keeps it
				list[i] = d.ids[w]
			}
		}
		b.pairs = c
	}
	eng.dictValues.Set(int64(len(d.vals)))
	d.mu.Unlock()
	eng.bases[k] = b
	return b
}

// scratch is a cursor's reusable evaluation state, sized by the dictionary
// and never by the log, so a call over a 64-row range does O(64) work. It is
// not engine-lifetime state: it goes when the cursor does.
type scratch struct {
	// memo[bi] holds the sets pairs op bi has answered under generation
	// gen; the entries of other boundaries hold none of this generation.
	// Bumping gen forgets every set without clearing.
	memo []setMemo
	gen  uint32

	// The current block is the call's targets numbered [base, base+size):
	// a set is words words and full holds each of its targets.
	base, size uint32
	words      int
	full       [blockWords]uint64

	// slot[t] is 1 + target t's number in this call, 0 for a value that is
	// not a target; it is all zero between calls. targets lists the call's
	// targets by number.
	slot, targets []uint32

	// Counting-sort state of groupByBlock.
	cnt, order []uint32
}

// setMemo is one pairs op's memo: value v's set is
// sets[v*words : (v+1)*words], current iff stamp[v] is the generation.
type setMemo struct {
	stamp []uint32
	sets  []uint64
}

// genLimit is the first generation a stamp cannot hold.
const genLimit = 1<<32 - 1

// startBlock begins a memo generation for the size targets numbered from
// base, sizing the memo of every pairs op of ops for a dictionary of n
// values and sets of the block's width.
func (s *scratch) startBlock(ops []op, n int, base, size uint32) {
	s.base, s.size = base, size
	s.words = int(size+63) / 64
	clear(s.full[:])
	for i := 0; i < s.words; i++ {
		s.full[i] = ^uint64(0)
	}
	if r := size % 64; r != 0 {
		s.full[s.words-1] = 1<<r - 1
	}
	for len(s.memo) <= len(ops) {
		s.memo = append(s.memo, setMemo{})
	}
	for bi := range ops {
		m := &s.memo[bi]
		if ops[bi].pairs == nil {
			continue
		}
		if len(m.stamp) < n {
			m.stamp = make([]uint32, n)
		}
		if len(m.sets) < n*s.words {
			m.sets = make([]uint64, n*s.words)
		}
	}
	if s.gen++; s.gen == genLimit {
		for _, m := range s.memo {
			clear(m.stamp)
		}
		s.gen = 1
	}
}

// bit returns target t's bit in the current block's sets, and false for a
// value that is no target of the block.
func (s *scratch) bit(t uint32) (uint32, bool) {
	b := s.slot[t] - 1 - s.base
	return b, b < s.size
}

// numberTargets numbers the distinct targets of the rows [lo, hi) densely
// in first-appearance order and returns how many there are.
func (s *scratch) numberTargets(target []uint32, lo, hi, n int) int {
	if len(s.slot) < n {
		s.slot = make([]uint32, n)
	}
	s.targets = s.targets[:0]
	for _, t := range target[lo:hi] {
		if s.slot[t] == 0 {
			s.targets = append(s.targets, t)
			s.slot[t] = uint32(len(s.targets))
		}
	}
	return len(s.targets)
}

// groupByBlock counting-sorts the numbered rows [lo, hi) by block of
// blockSize target numbers in time O(hi-lo): order lists the rows (as
// offsets from lo) block by block, in log order within a block, and
// cnt[blk] is the end of block blk's run in order.
func (s *scratch) groupByBlock(target []uint32, lo, hi int) {
	s.cnt = s.cnt[:0]
	for range (len(s.targets) + blockSize - 1) / blockSize {
		s.cnt = append(s.cnt, 0)
	}
	for _, t := range target[lo:hi] {
		s.cnt[(s.slot[t]-1)/blockSize]++
	}
	pos := uint32(0)
	for blk, c := range s.cnt {
		pos, s.cnt[blk] = pos+c, pos
	}
	if cap(s.order) < hi-lo {
		s.order = make([]uint32, hi-lo)
	}
	s.order = s.order[:hi-lo]
	for k, t := range target[lo:hi] {
		blk := (s.slot[t] - 1) / blockSize
		s.order[s.cnt[blk]] = uint32(k)
		s.cnt[blk]++
	}
}

// clearTargets forgets the call's target numbering.
func (s *scratch) clearTargets() {
	for _, t := range s.targets {
		s.slot[t] = 0
	}
}
