package query

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/relation"
)

// This file is the engine's dense-ID layer. Every column a plan, an
// estimate or an instance walk reads — the two columns of a DISTINCT
// projection, an exists column, an instance's entry and exit, the audited
// log's patients and users — is interned once per table version into a
// column of uint32 IDs (column). The lowered forms (csr, idSet, row CSRs)
// are built from those columns by counting, with no hashing (lowered,
// groupRows), and the walks touch only IDs. IDs are handed out in encounter
// order and never change; an ID says nothing about its value's rank, so
// every DISTINCT posting list is sorted into Value order explicitly — where
// a walk stops (its first witness, or the posting that fills its set), and
// so how many postings it consumes, must not depend on the order values
// happened to be interned in.

// dict is the engine's value dictionary, keyed by typed payloads: one map
// per kind, so interning an int hashes an int64, never a whole Value. vals
// is append-only, so a slice header read under the lock stays a valid
// prefix afterwards.
type dict struct {
	mu          sync.RWMutex
	ints, dates map[int64]uint32
	strs        map[string]uint32
	null        uint32 // 1 + the null value's ID; 0 until it is interned
	vals        []relation.Value
}

func newDict() dict {
	return dict{ints: make(map[int64]uint32), dates: make(map[int64]uint32), strs: make(map[string]uint32)}
}

// intern returns v's ID, assigning the next one on first sight. The caller
// holds d.mu for writing.
func (d *dict) intern(v relation.Value) uint32 {
	switch v.Kind {
	case relation.KindInt:
		return internIn(d, d.ints, v.Int, v)
	case relation.KindDate:
		return internIn(d, d.dates, v.Int, v)
	case relation.KindString:
		return internIn(d, d.strs, v.Str, v)
	}
	if d.null == 0 {
		d.vals = append(d.vals, v)
		d.null = uint32(len(d.vals))
	}
	return d.null - 1
}

// internIn returns the ID of v, whose payload is k in m, assigning the next
// one on first sight.
func internIn[K comparable](d *dict, m map[K]uint32, k K, v relation.Value) uint32 {
	id, ok := m[k]
	if !ok {
		id = uint32(len(d.vals))
		m[k] = id
		d.vals = append(d.vals, v)
	}
	return id
}

// noID stands for a value the dictionary never assigned: it lies beyond
// every lowered form, so it has no postings and equals no ID.
const noID = ^uint32(0)

// lookup returns v's ID, or noID when v was never interned.
func (d *dict) lookup(v relation.Value) uint32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.find(v)
}

// find is lookup for a caller that holds d.mu.
func (d *dict) find(v relation.Value) uint32 {
	var id uint32
	ok := false
	switch v.Kind {
	case relation.KindInt:
		id, ok = d.ints[v.Int]
	case relation.KindDate:
		id, ok = d.dates[v.Int]
	case relation.KindString:
		id, ok = d.strs[v.Str]
	default:
		id, ok = d.null-1, d.null != 0
	}
	if !ok {
		return noID
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

// colKey names one column of a table as the engine interns it. The audited
// log has its own key space, because it need not be the database's Log
// table (see NewEvaluatorWithLog) and the two must not evict each other.
type colKey struct {
	audited    bool
	table, col string
}

// idCol is one column of a table as dictionary IDs, ids[r] for row r,
// valid while the table is still t at the same version. set holds the
// column's distinct IDs and ndv counts them.
type idCol struct {
	once    sync.Once
	t       *relation.Table
	version uint64
	ids     []uint32
	set     idSet
	ndv     int
}

// column returns the ID form of column name of t, interning it on first
// use and again once t has grown or was replaced. baseMu guards only the
// lookup; the interning runs under the entry's own once, so two workers
// intern different columns in parallel. The audited log's Patient and User
// columns are the engine's ID projections and are not interned again.
func (eng *engine) column(t *relation.Table, name string) *idCol {
	k := colKey{t == eng.log, t.Name(), name}
	eng.baseMu.Lock()
	c := eng.cols[k]
	if c == nil || c.t != t || c.version != t.Version() {
		c = &idCol{t: t, version: t.Version()}
		eng.cols[k] = c
	}
	eng.baseMu.Unlock()
	c.once.Do(func() {
		ci, ok := t.ColumnIndex(name)
		if !ok {
			panic("query: table " + t.Name() + " has no column " + name)
		}
		switch {
		case t == eng.log && ci == eng.logPatientIdx:
			c.ids = eng.idProjections().patientID[:t.NumRows()]
		case t == eng.log && ci == eng.logUserIdx:
			c.ids = eng.idProjections().userID[:t.NumRows()]
		default:
			d := &eng.dict
			d.mu.Lock()
			c.ids = make([]uint32, t.NumRows())
			for r := range c.ids {
				c.ids[r] = d.intern(t.Cell(r, ci))
			}
			eng.dictValues.Set(int64(len(d.vals)))
			d.mu.Unlock()
		}
		c.set = newIDSet(len(eng.dict.values()))
		for _, id := range c.ids {
			if !c.set.has(id) {
				c.set.add(id)
				c.ndv++
			}
		}
	})
	return c
}

// baseKey names one lowered form of a table: the DISTINCT (a, b) pairs, or
// with b empty the distinct values of column a; or, with rows set, a row
// CSR listing for each ID of column a the rows holding it, in that order,
// with column b's ID per row as their exit.
type baseKey struct {
	table, a, b string
	rows        rowOrder
}

type rowOrder uint8

const (
	projection rowOrder = iota // not a row CSR
	inRowOrder
	byExit // grouped by exit ID, ascending; in row order within a group
)

// base is one lowered form, valid while the table it was read from is
// still t at the same version. Exactly one of pairs, set and rows is
// non-nil; exit is set with rows.
type base struct {
	once    sync.Once
	t       *relation.Table
	version uint64
	pairs   *csr
	set     idSet
	rows    *csr
	exit    []uint32
}

// lowered returns the lowered form k of t, lowering it on first use and
// again once t has grown or was replaced; every plan and instance walk in
// between shares the one copy. Like column, it holds baseMu only for the
// lookup and builds under the entry's once.
func (eng *engine) lowered(t *relation.Table, k baseKey) *base {
	eng.baseMu.Lock()
	b := eng.bases[k]
	if b == nil || b.t != t || b.version != t.Version() {
		b = &base{t: t, version: t.Version()}
		eng.bases[k] = b
	}
	eng.baseMu.Unlock()
	b.once.Do(func() {
		switch {
		case k.rows != projection:
			from, exit := eng.column(t, k.a).ids, eng.column(t, k.b).ids
			n := len(eng.dict.values())
			var order []uint32
			if k.rows == byExit {
				_, order = groupRows(exit, nil, n)
			}
			off, rows := groupRows(from, order, n)
			b.rows, b.exit = &csr{off: off, to: rows}, exit
		case k.b == "":
			b.set = eng.column(t, k.a).set
		default:
			from, to := eng.column(t, k.a).ids, eng.column(t, k.b).ids
			b.pairs = buildCSR(from, to, eng.dict.values())
		}
	})
	return b
}

// group returns the rows of a byExit list whose exit ID is id, found by
// binary search without reading the rows before them.
func (b *base) group(list []uint32, id uint32) []uint32 {
	lo, _ := slices.BinarySearchFunc(list, id, func(r, id uint32) int { return cmp.Compare(b.exit[r], id) })
	hi := lo
	for hi < len(list) && b.exit[list[hi]] == id {
		hi++
	}
	return list[lo:hi]
}

// groupRows is the count-and-fill step of a counting sort: it groups the
// rows of the ID column col, each ID below n, by ID, visiting them in the
// order order lists them, or in row order when order is nil. The rows of ID
// v are rows[off[v]:off[v+1]], in visiting order.
func groupRows(col, order []uint32, n int) (off, rows []uint32) {
	off = make([]uint32, n+1)
	for _, v := range col {
		off[v+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	fill := slices.Clone(off[:n])
	rows = make([]uint32, len(col))
	for i := range col {
		r := uint32(i)
		if order != nil {
			r = order[i]
		}
		v := col[r]
		rows[fill[v]] = r
		fill[v]++
	}
	return off, rows
}

// buildCSR builds the DISTINCT projection of the row-aligned ID columns
// (from, to) by counting sort: the rows of each from-ID in row order
// (groupRows), their to-IDs, and a dedupe of each list against a stamp
// array. Each list is then sorted in the Value order of vals, which must
// cover every ID of both columns.
func buildCSR(from, to []uint32, vals []relation.Value) *csr {
	n := len(vals)
	off, all := groupRows(from, nil, n)
	for i, r := range all {
		all[i] = to[r]
	}
	// Compact in place: list v moves down to start at w, dropping every
	// to-ID already stamped with v+1. off[v] is rewritten only after list
	// v's old bounds were read, and off[v+1] is still list v+1's old start.
	stamp := make([]uint32, n)
	w := uint32(0)
	byValue := func(x, y uint32) int { return vals[x].Compare(vals[y]) }
	for v := range n {
		lo, hi := off[v], off[v+1]
		off[v] = w
		for _, t := range all[lo:hi] {
			if stamp[t] != uint32(v)+1 {
				stamp[t] = uint32(v) + 1
				all[w] = t
				w++
			}
		}
		if w-off[v] > 1 {
			slices.SortFunc(all[off[v]:w], byValue)
		}
	}
	off[n] = w
	return &csr{off: off, to: slices.Clone(all[:w])}
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

// numberTargets numbers the distinct targets of a call's units densely in
// first-appearance order and returns how many there are.
func (s *scratch) numberTargets(target []uint32, n int) int {
	if len(s.slot) < n {
		s.slot = make([]uint32, n)
	}
	s.targets = s.targets[:0]
	for _, t := range target {
		if s.slot[t] == 0 {
			s.targets = append(s.targets, t)
			s.slot[t] = uint32(len(s.targets))
		}
	}
	return len(s.targets)
}

// groupByBlock counting-sorts a call's numbered units by block of
// blockSize target numbers in time O(len(target)): order lists the units
// block by block, in unit order within a block, and cnt[blk] is the end of
// block blk's run in order.
func (s *scratch) groupByBlock(target []uint32) {
	s.cnt = s.cnt[:0]
	for range (len(s.targets) + blockSize - 1) / blockSize {
		s.cnt = append(s.cnt, 0)
	}
	for _, t := range target {
		s.cnt[(s.slot[t]-1)/blockSize]++
	}
	pos := uint32(0)
	for blk, c := range s.cnt {
		pos, s.cnt[blk] = pos+c, pos
	}
	if cap(s.order) < len(target) {
		s.order = make([]uint32, len(target))
	}
	s.order = s.order[:len(target)]
	for k, t := range target {
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
