package query

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// This file is the instance enumerator: the one walk behind Instances,
// InstancesDecorated and decorated row classification. A closed path is
// compiled once per cursor into hops — tables, entry indexes, exit column
// positions and bridge projections resolved up front — and walked forward
// from the row's patient with the row's user known: the closing condition
// is tested inline at the last instance, and a long posting list there is
// not filtered but probed for the rows holding both the arriving value and
// the user (relation.Table.PairIndex), so a branch with no witness for this
// user costs one lookup instead of a scan. Only rows that cannot close are
// skipped, so the bindings and their order are those of the blind
// depth-first search (the test-only instancesReference pins this).
//
// An undecorated walk reads nothing of the audited row but its patient and
// its user, so its bindings are a function of (path, patient, user). A
// cursor cloned with an InstanceMemo walks each such key once and serves
// every later row with the same key from the memo, which all cursors of one
// whole-log stream share.

// InstanceBinding is one concrete explanation instance for a specific log
// row: the row chosen in each non-log table instance along the path, in
// path order.
type InstanceBinding struct {
	Rows []int
}

// instHop is one non-log instance of a compiled path: how to reach it from
// the previous instance's exit value and where to leave it.
type instHop struct {
	bridge map[relation.Value][]relation.Value // Via translation of the incoming value; nil for a direct join
	table  *relation.Table
	index  map[relation.Value][]int // rows of table by entry-column value
	exit   int                      // exit column position in table's rows
}

// instEnum is one cursor's compiled enumerator for one exact path. The hops
// snapshot table indexes, so the enumerator is valid only while no table was
// swapped (schema) and none it reads has grown (deps) — the rule, and the
// dependency set, of the path's cached plan.
type instEnum struct {
	schema uint64
	deps   []planDep
	hops   []instHop

	// The closing condition: bridged, it translates the last instance's exit
	// value through closer; direct, it binds that instance at both ends and
	// ends — its rows by (entry, exit) value, built on first need — probes it.
	closer  map[relation.Value][]relation.Value
	ends    map[[2]relation.Value][]int
	endCols [2]string

	// Per-call walk state.
	user    relation.Value
	limit   int
	found   int                 // bindings emitted so far
	flat    []int               // their rows, len(hops) per binding; reused from call to call
	rows    []int               // the row bound in each hop so far
	logRow  []relation.Value    // the audited row, for decorations on instance 0
	ready   [][]boundDecoration // decorations checkable once instance i is bound; nil for an undecorated walk
	nodes   int
	scanned int

	// memo is this path's entry table in the cursor's InstanceMemo for the
	// limit memoLimit, resolved on first use; nil when not resolved yet.
	memo      []atomic.Uint32
	memoLimit int
}

const (
	// probeMin is the posting-list length above which the last hop probes
	// ends instead of filtering the list: hashing a two-value key costs about
	// as much as comparing this many rows.
	probeMin = 8
	// enumCacheCap bounds a cursor's compiled enumerators; on overflow the
	// cache is cleared and refills on demand.
	enumCacheCap = 256
)

// enumerator returns this cursor's compiled enumerator for the closed path
// p, compiling it on first use and again once it is stale. Paths are
// immutable and each owns its condition array, so the array's address
// identifies the path.
func (ev *Evaluator) enumerator(p pathmodel.Path) *instEnum {
	if !p.Closed() {
		panic("query: Instances requires a closed path")
	}
	id := &p.Conds()[0]
	if e := ev.enums[id]; e != nil && e.schema == ev.db.SchemaVersion() && depsFresh(e.deps) {
		return e
	}
	if ev.enums == nil || len(ev.enums) >= enumCacheCap {
		ev.enums = make(map[*pathmodel.Cond]*instEnum)
	}
	if !p.Forward() {
		p = p.Reverse()
	}
	e := &instEnum{schema: ev.db.SchemaVersion(), deps: ev.planDeps(p)}
	ev.enums[id] = e
	insts, conds := p.Instances(), p.Conds()
	bridge := func(c pathmodel.Cond) map[relation.Value][]relation.Value {
		if c.Via == nil {
			return nil
		}
		return ev.db.MustTable(c.Via.Table).DistinctPairs(c.Via.FromColumn, c.Via.ToColumn)
	}
	e.hops = make([]instHop, len(insts)-1)
	e.rows = make([]int, len(e.hops))
	for i := range e.hops {
		in := insts[i+1]
		t := ev.db.MustTable(in.Table)
		exit, ok := t.ColumnIndex(in.Exit)
		if !ok {
			panic("query: table " + in.Table + " has no column " + in.Exit)
		}
		e.hops[i] = instHop{bridge: bridge(conds[i]), table: t, index: t.Index(in.Entry), exit: exit}
	}
	e.closer = bridge(conds[len(conds)-1])
	e.endCols = [2]string{insts[len(insts)-1].Entry, insts[len(insts)-1].Exit}
	return e
}

// run enumerates up to limit bindings for the audited row logRow and charges
// the walk to the cursor and to the engine's query.instances.* counters. It
// returns the number of bindings found and their rows, len(hops) per
// binding, in the enumerator's scratch: valid until its next run.
func (e *instEnum) run(ev *Evaluator, logRow, limit int) (n int, flat []int) {
	pr := ev.projections()
	e.user, e.limit = pr.users[logRow], max(limit, 1)
	e.found, e.flat = 0, e.flat[:0]
	if e.ready != nil {
		e.logRow = ev.log.Row(logRow)
	}
	if e.holds(0) {
		e.walk(0, pr.patients[logRow])
	}
	ev.postingsScanned += e.scanned
	ev.instCalls.Add(1)
	ev.instNodes.Add(int64(e.nodes))
	ev.instBindings.Add(int64(e.found))
	e.nodes, e.scanned = 0, 0
	return e.found, e.flat
}

// bindings returns n bindings w rows wide over flat, appended to out; each
// binding's Rows is capped, so appending to one cannot clobber the next.
func bindings(out []InstanceBinding, n, w int, flat []int) []InstanceBinding {
	for i := range n {
		out = append(out, InstanceBinding{Rows: flat[i*w : (i+1)*w : (i+1)*w]})
	}
	return out
}

// fresh returns a run's bindings in memory of their own, nil when there are
// none.
func fresh(n, w int, flat []int) []InstanceBinding {
	if n == 0 {
		return nil
	}
	return bindings(make([]InstanceBinding, 0, n), n, w, slices.Clone(flat))
}

// walk expands the value cur arriving at hop hi and reports whether the
// limit was reached. A node is one expansion, closing test or emitted
// binding: the calls the blind search makes, so the two counts compare.
func (e *instEnum) walk(hi int, cur relation.Value) bool {
	e.nodes++
	h := &e.hops[hi]
	last := hi == len(e.hops)-1
	one := [1]relation.Value{cur}
	cands := one[:]
	if h.bridge != nil {
		cands = h.bridge[cur]
	}
	for _, v := range cands {
		if h.bridge != nil {
			e.scanned++
		}
		rows := h.index[v]
		closed := false // rows already holds only rows that close
		if last && e.closer == nil && len(rows) > probeMin {
			if e.ends == nil {
				e.ends = h.table.PairIndex(e.endCols[0], e.endCols[1])
			}
			rows, closed = e.ends[[2]relation.Value{v, e.user}], true
		}
		for _, r := range rows {
			e.scanned++
			e.rows[hi] = r
			if !e.holds(hi + 1) {
				continue
			}
			next := h.table.Row(r)[h.exit]
			if !last {
				if e.walk(hi+1, next) {
					return true
				}
				continue
			}
			e.nodes++
			if !closed && !e.closes(next) {
				continue
			}
			e.nodes++
			e.flat = append(e.flat, e.rows...)
			if e.found++; e.found >= e.limit {
				return true
			}
		}
	}
	return false
}

// closes tests the closing condition: the last instance's exit value v,
// translated through the closing bridge if there is one, equals the user.
func (e *instEnum) closes(v relation.Value) bool {
	if e.closer == nil {
		return v == e.user
	}
	for _, w := range e.closer[v] {
		e.scanned++
		if w == e.user {
			return true
		}
	}
	return false
}

// Instances enumerates up to limit explanation instances of a closed path
// for the log row at index logRow. Each binding fixes one row per non-log
// instance such that all join conditions (including bridge translations)
// hold; the explain package renders them in natural language. The search
// unwinds as soon as limit bindings exist, so the postings consumed are
// bounded by the work to the limit-th witness, not by the hop fanout
// (PostingsScanned counts the consumption).
//
// On a cursor cloned with an InstanceMemo (CloneWithMemo), a row whose
// (patient, user) pair this path already walked at this limit is served
// from the memo; the bindings are then the cursor's scratch, valid until its
// next Instances call.
func (ev *Evaluator) Instances(p pathmodel.Path, logRow, limit int) []InstanceBinding {
	e := ev.enumerator(p)
	e.ready = nil
	if m := ev.memo.m; m != nil && logRow >= 0 && logRow < len(m.slot) {
		return ev.memoInstances(e, &p.Conds()[0], logRow, max(limit, 1))
	}
	n, flat := e.run(ev, logRow, limit)
	return fresh(n, len(e.hops), flat)
}

// InstanceMemo holds the instance bindings of undecorated walks keyed by
// (path, limit, patient, user), for the cursors of one call that renders
// many rows of an audited log that does not change meanwhile (a whole-log
// stream). The rows' (patient, user) pairs are numbered by the engine's pair
// column (see logProj), so a path's entries are one dense array indexed by
// pair. Cursors
// read it without locks: an entry is 0 until a walk publishes the offset of
// its record (atomically, after writing the record), and two cursors racing
// on one entry compute the same bindings, so either record serves. Records
// live in an arena of fixed blocks, each block filled by the one cursor
// that claimed it; a record is the binding count n, then n bindings of one
// row per hop. A full arena stops memoizing, never evicts.
type InstanceMemo struct {
	eng  *engine
	slot []uint32 // audited row -> its pair in the engine's pair column
	nps  int      // number of distinct pairs

	mu     sync.Mutex
	tables map[memoKey][]atomic.Uint32 // made on first use

	blocks []atomic.Pointer[memoBlock]
	next   atomic.Int64 // next unclaimed block
}

// memoKey names one entry table: a path, by its condition array's address
// as the enumerator cache does, and the bindings limit.
type memoKey struct {
	id    *pathmodel.Cond
	limit int
}

const (
	// memoBlockBits sizes an arena block: 8,192 rows, 32 KiB.
	memoBlockBits = 13
	memoBlockLen  = 1 << memoBlockBits
	// memoMaxBlocks caps the arena at 128 MiB.
	memoMaxBlocks = 1 << 12
)

type memoBlock [memoBlockLen]int32

// memoCursor is one cursor's handle on a shared InstanceMemo: the block it
// fills, and the scratch a hit decodes into.
type memoCursor struct {
	m    *InstanceMemo
	blk  *memoBlock
	base int // global arena offset of blk[0]
	fill int // rows of blk in use
	rows []int
	out  []InstanceBinding
}

// NewInstanceMemo returns an empty memo over the audited log's rows as they
// are now; later rows bypass it. It numbers the rows by the engine's pair
// column (see logProj), which it reads without copying.
func (ev *Evaluator) NewInstanceMemo() *InstanceMemo {
	pr := ev.idProjections()
	return &InstanceMemo{
		eng:    ev.engine,
		slot:   pr.pairID,
		nps:    len(pr.pairRows),
		blocks: make([]atomic.Pointer[memoBlock], memoMaxBlocks),
	}
}

// CloneWithMemo is Clone for a cursor whose Instances calls read and fill
// m, which must have been made by a cursor of the same engine.
func (ev *Evaluator) CloneWithMemo(m *InstanceMemo) *Evaluator {
	if m.eng != ev.engine {
		panic("query: InstanceMemo belongs to another engine")
	}
	return &Evaluator{engine: ev.engine, memo: memoCursor{m: m}}
}

// table returns the entry table of (id, limit), creating it on first use.
func (m *InstanceMemo) table(id *pathmodel.Cond, limit int) []atomic.Uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := memoKey{id, limit}
	t := m.tables[k]
	if t == nil {
		if m.tables == nil {
			m.tables = make(map[memoKey][]atomic.Uint32)
		}
		t = make([]atomic.Uint32, m.nps)
		m.tables[k] = t
	}
	return t
}

// memoInstances serves Instances for logRow from the memo, walking and
// publishing the bindings on a miss. A hit is charged to
// query.instances.calls and .bindings as the walk it stands for would be,
// but expands no nodes.
func (ev *Evaluator) memoInstances(e *instEnum, id *pathmodel.Cond, logRow, limit int) []InstanceBinding {
	mc := &ev.memo
	if e.memo == nil || e.memoLimit != limit {
		e.memo, e.memoLimit = mc.m.table(id, limit), limit
	}
	w := len(e.hops)
	ent := &e.memo[mc.m.slot[logRow]]
	if off := ent.Load(); off != 0 {
		out := mc.decode(int(off-1), w)
		ev.instMemoHits.Add(1)
		ev.instCalls.Add(1)
		ev.instBindings.Add(int64(len(out)))
		return out
	}
	ev.instMemoMisses.Add(1)
	n, flat := e.run(ev, logRow, limit)
	if off, ok := mc.store(n, flat); ok {
		ent.Store(uint32(off + 1))
	}
	if n == 0 {
		return nil
	}
	mc.out = bindings(mc.out[:0], n, w, flat)
	return mc.out
}

// decode returns the record at arena offset off, of bindings w rows wide,
// in the cursor's scratch.
func (mc *memoCursor) decode(off, w int) []InstanceBinding {
	blk := mc.m.blocks[off>>memoBlockBits].Load()
	rec := blk[off&(memoBlockLen-1):]
	n := int(rec[0])
	if n == 0 {
		return nil
	}
	mc.rows = mc.rows[:0]
	for _, r := range rec[1 : 1+n*w] {
		mc.rows = append(mc.rows, int(r))
	}
	mc.out = bindings(mc.out[:0], n, w, mc.rows)
	return mc.out
}

// store writes a run's n bindings, their rows flat, as a record into the
// cursor's arena block, claiming a new block when the record does not fit,
// and returns its arena offset; ok is false when the arena is full or the
// record larger than a block.
func (mc *memoCursor) store(n int, flat []int) (off int, ok bool) {
	size := 1 + len(flat)
	if size > memoBlockLen {
		return 0, false
	}
	if mc.blk == nil || mc.fill+size > memoBlockLen {
		b := mc.m.next.Add(1) - 1
		if b >= memoMaxBlocks {
			mc.blk = nil
			return 0, false
		}
		mc.blk, mc.base, mc.fill = new(memoBlock), int(b)<<memoBlockBits, 0
		mc.m.blocks[b].Store(mc.blk)
	}
	rec := mc.blk[mc.fill : mc.fill+size]
	rec[0] = int32(n)
	for i, r := range flat {
		rec[1+i] = int32(r)
	}
	off = mc.base + mc.fill
	mc.fill += size
	return off, true
}
