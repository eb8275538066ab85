package query

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/pathmodel"
)

// This file is the instance enumerator: the one walk behind Instances,
// InstancesDecorated and decorated row classification. It walks the ops
// compile builds for the forward path, depth-first over dictionary IDs from
// the row's patient, with the row's user known. A bridge reads the pairs
// CSR the set walk reads (lists in Value order), a table instance its row
// CSR: entry ID to the table's rows in row order, each with its exit ID
// (see dict.go). When the path closes directly, the last instance's lists
// are grouped by exit ID and the walk binary-searches the user's group, so
// it consumes only the rows that close; a bridged close compares the
// bridged IDs with the user's. Only rows that cannot close are skipped, so
// the bindings and their order are those of the blind depth-first search
// (the test-only InstancesReference pins this).
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

// instEnum is one cursor's walk of one exact closed path: per op of the
// forward compile, the engine's lowered form it reads (nil for the close),
// then walk scratch and the path's entry table in the cursor's
// InstanceMemo. It is valid while the schema is unchanged and every form it
// reads is current.
type instEnum struct {
	schema uint64
	ops    []*base

	// Per-call walk state.
	user    uint32
	limit   int
	found   int                 // bindings emitted so far
	flat    []int               // their rows, len(rows) per binding; reused from call to call
	rows    []int               // the row bound in each table instance so far
	logRow  int                 // the audited row, for decorations on instance 0
	ready   [][]boundDecoration // decorations checkable once instance i is bound; nil for an undecorated walk
	nodes   int
	scanned int

	// memo is this path's entry table in the cursor's InstanceMemo for the
	// limit memoLimit, resolved on first use; nil when not resolved yet.
	memo      []atomic.Uint32
	memoLimit int
}

// enumerator returns this cursor's walk of the closed path p, resolving it
// on first use and again once it is stale. Paths are immutable and each
// owns its condition array, so the array's address identifies the path.
func (ev *Evaluator) enumerator(p pathmodel.Path) *instEnum {
	if !p.Closed() {
		panic("query: Instances requires a closed path")
	}
	id := &p.Conds()[0]
	if e := ev.enums[id]; e != nil && e.schema == ev.db.SchemaVersion() && current(e.ops) {
		return e
	}
	if ev.enums == nil {
		ev.enums = make(map[*pathmodel.Cond]*instEnum)
	}
	ops := ev.compile(p.Reverse()).ops
	e := &instEnum{schema: ev.db.SchemaVersion(), ops: make([]*base, len(ops)), rows: make([]int, len(p.Instances())-1)}
	for i, o := range ops {
		switch k := o.key; o.kind {
		case opBridge:
			e.ops[i] = ev.lowered(o.t, k)
		case opMap:
			k.rows = inRowOrder
			if ops[i+1].kind == opClose {
				k.rows = byExit
			}
			e.ops[i] = ev.lowered(o.t, k)
		}
	}
	ev.enums[id] = e
	return e
}

// rowIDs returns the audited row's patient and user IDs, off its pair in
// the cursor's InstanceMemo or the ID projections when either covers it,
// else from the dictionary (noID for a value never interned). A lookup must
// follow the lowering of the path's ops, which interns every join value.
func (ev *Evaluator) rowIDs(logRow int) (patient, user uint32) {
	if m := ev.memo.m; m != nil && logRow < len(m.slot) {
		return m.patient[m.slot[logRow]], m.user[m.slot[logRow]]
	}
	if pr := ev.proj.Load(); logRow < len(pr.patientID) {
		return pr.patientID[logRow], pr.userID[logRow]
	}
	return ev.dict.lookup(ev.log.Cell(logRow, ev.logPatientIdx)), ev.dict.lookup(ev.log.Cell(logRow, ev.logUserIdx))
}

// run enumerates up to limit bindings for the audited row logRow and charges
// the walk to the cursor's tally of query.instances.* counts (see
// FlushStats). It returns the number of bindings found and their rows,
// len(e.rows) per binding, in the enumerator's scratch: valid until its
// next run.
func (e *instEnum) run(ev *Evaluator, logRow, limit int) (n int, flat []int) {
	patient, user := ev.rowIDs(logRow)
	e.user, e.limit = user, max(limit, 1)
	e.found, e.flat = 0, e.flat[:0]
	e.logRow = logRow
	if e.holds(0) {
		e.walk(0, 0, patient)
	}
	ev.postingsScanned += e.scanned
	ev.inst.calls++
	ev.inst.nodes += int64(e.nodes)
	ev.inst.bindings += int64(e.found)
	e.nodes, e.scanned = 0, 0
	return e.found, e.flat
}

// instTally is a cursor's query.instances.* counts not yet added to the
// engine's counters, in plain ints: the walk makes no atomic adds on
// counters other cursors share.
type instTally struct{ calls, nodes, bindings, memoHits, memoMisses int64 }

// FlushStats adds the cursor's pending query.instances.* counts to the
// engine's counters. A cursor without an InstanceMemo flushes at the end of
// each Instances, InstancesDecorated, ExplainedRowsDecoratedRange and
// SupportDecoratedRange call itself. A cursor made by CloneWithMemo renders many rows for one owner
// and holds its counts until the owner calls FlushStats: the whole-log
// stream does so once per chunk of rows.
func (ev *Evaluator) FlushStats() {
	t := &ev.inst
	if t.calls == 0 { // every memo hit and every walk counts a call
		return
	}
	ev.instCalls.Add(t.calls)
	ev.instBindings.Add(t.bindings)
	if t.nodes != 0 {
		ev.instNodes.Add(t.nodes)
	}
	if t.memoHits != 0 {
		ev.instMemoHits.Add(t.memoHits)
	}
	if t.memoMisses != 0 {
		ev.instMemoMisses.Add(t.memoMisses)
	}
	*t = instTally{}
}

// endCall ends an instance-walk call: a cursor without a memo flushes its
// counts now (see FlushStats).
func (ev *Evaluator) endCall() {
	if ev.memo.m == nil {
		ev.FlushStats()
	}
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

// walk expands the value v entering op oi, the first op of the condition
// that joins table instance hi+1, and reports whether the limit was
// reached. A node is one expansion, closing test or emitted binding: the
// calls the blind search makes, so the two counts compare.
func (e *instEnum) walk(oi, hi int, v uint32) bool {
	e.nodes++
	one := [1]uint32{v}
	cands := one[:]
	bridged := e.ops[oi].rows == nil
	if bridged {
		cands, oi = e.ops[oi].pairs.list(v), oi+1
	}
	h, next := e.ops[oi], e.ops[oi+1]
	last := next == nil || next.rows == nil && e.ops[oi+2] == nil
	for _, w := range cands {
		if bridged {
			e.scanned++
		}
		rows := h.rows.list(w)
		if next == nil {
			rows = h.group(rows, e.user)
		}
		for _, r := range rows {
			e.scanned++
			e.rows[hi] = int(r)
			if !e.holds(hi + 1) {
				continue
			}
			x := h.exit[r]
			if !last {
				if e.walk(oi+1, hi+1, x) {
					return true
				}
				continue
			}
			e.nodes++
			if next != nil && !e.closes(next, x) {
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

// closes reports whether the closing bridge translates the last instance's
// exit ID x to the user.
func (e *instEnum) closes(bridge *base, x uint32) bool {
	for _, w := range bridge.pairs.list(x) {
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
// (the cursor's postings counter counts the consumption).
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
	ev.endCall()
	return fresh(n, len(e.rows), flat)
}

// InstanceMemo holds the instance bindings of undecorated walks keyed by
// (path, limit, patient, user), for the cursors of one call that renders
// many rows of an audited log that does not change meanwhile (a whole-log
// stream). The rows' (patient, user) pairs are numbered by the engine's pair
// column (see logProj), so a path's entries are one dense array indexed by
// pair, and a walk reads its row's two IDs off the pair. Cursors read it
// without locks: an entry is 0 until a walk publishes the offset of
// its record (atomically, after writing the record), and two cursors racing
// on one entry compute the same bindings, so either record serves. Records
// live in an arena of fixed blocks, each block filled by the one cursor
// that claimed it; a record is the binding count n, then n bindings of one
// row per hop. A full arena stops memoizing, never evicts.
type InstanceMemo struct {
	eng           *engine
	slot          []uint32 // audited row -> its pair in the engine's pair column
	patient, user []uint32 // pair -> its patient and user IDs

	mu     sync.Mutex
	tables map[memoKey][]atomic.Uint32 // made on first use

	blocks []atomic.Pointer[memoBlock]
	next   atomic.Int64 // next unclaimed block
}

// memoKey names one entry table: a path, by its condition array's address
// as the cursor's walks do, and the bindings limit.
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
		eng:     ev.engine,
		slot:    pr.pairID,
		patient: pr.pairPatient,
		user:    pr.pairUser,
		blocks:  make([]atomic.Pointer[memoBlock], memoMaxBlocks),
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
		t = make([]atomic.Uint32, len(m.patient))
		m.tables[k] = t
	}
	return t
}

// memoInstances serves Instances for logRow from the memo, walking and
// publishing the bindings on a miss. A hit is charged to
// query.instances.calls and .bindings as the walk it stands for would be,
// but expands no nodes. The counts wait in the cursor's tally for its
// owner's FlushStats.
func (ev *Evaluator) memoInstances(e *instEnum, id *pathmodel.Cond, logRow, limit int) []InstanceBinding {
	mc := &ev.memo
	if e.memo == nil || e.memoLimit != limit {
		e.memo, e.memoLimit = mc.m.table(id, limit), limit
	}
	w := len(e.rows)
	ent := &e.memo[mc.m.slot[logRow]]
	if off := ent.Load(); off != 0 {
		out := mc.decode(int(off-1), w)
		ev.inst.memoHits++
		ev.inst.calls++
		ev.inst.bindings += int64(len(out))
		return out
	}
	ev.inst.memoMisses++
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
