package query

import (
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
	out     []InstanceBinding
	rows    []int               // the row bound in each hop so far
	logRow  []relation.Value    // the audited row, for decorations on instance 0
	ready   [][]boundDecoration // decorations checkable once instance i is bound; nil for an undecorated walk
	nodes   int
	scanned int
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
// the walk to the cursor and to the engine's query.instances.* counters.
func (e *instEnum) run(ev *Evaluator, logRow, limit int) []InstanceBinding {
	pr := ev.projections()
	e.user, e.limit = pr.users[logRow], max(limit, 1)
	if e.ready != nil {
		e.logRow = ev.log.Row(logRow)
	}
	if e.holds(0) {
		e.walk(0, pr.patients[logRow])
	}
	out := e.out
	ev.postingsScanned += e.scanned
	ev.instCalls.Add(1)
	ev.instNodes.Add(int64(e.nodes))
	ev.instBindings.Add(int64(len(out)))
	e.out, e.nodes, e.scanned = nil, 0, 0
	return out
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
			if e.out == nil {
				e.out = make([]InstanceBinding, 0, min(e.limit, 4))
			}
			e.out = append(e.out, InstanceBinding{Rows: append([]int(nil), e.rows...)})
			if len(e.out) >= e.limit {
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
func (ev *Evaluator) Instances(p pathmodel.Path, logRow, limit int) []InstanceBinding {
	e := ev.enumerator(p)
	e.ready = nil
	return e.run(ev, logRow, limit)
}
