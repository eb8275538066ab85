package query

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/pathmodel"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// QueriesEvaluated returns the number of exact support evaluations performed.
func (ev *Evaluator) QueriesEvaluated() int { return ev.queriesEvaluated }

// EstimatesIssued returns the number of cardinality estimates issued.
func (ev *Evaluator) EstimatesIssued() int { return ev.estimatesIssued }

// PostingsScanned returns the number of index postings and pair-list
// entries this cursor's lazy evaluations and instance enumerations have
// consumed. Like QueriesEvaluated it is per-cursor.
func (ev *Evaluator) PostingsScanned() int { return ev.postingsScanned }

// Bools unpacks a mask into one boolean per bit, the form the tests compare
// with ScanRows and the other per-row references.
func Bools(m *bitset.Bits) []bool {
	out := make([]bool, m.Len())
	for r := range out {
		out[r] = m.Get(r)
	}
	return out
}

// ExplainedBools is the closed path's whole-log ExplainedRange, unpacked.
func (pp *Prepared) ExplainedBools() []bool {
	n := pp.ev.log.NumRows()
	m := bitset.New(n)
	pp.ExplainedRange(0, n, m)
	return Bools(m)
}

// ConnectedBools is the open path's ConnectedRows, unpacked.
func (pp *Prepared) ConnectedBools() []bool { return Bools(pp.ConnectedRows()) }

// ExplainedBools prepares the closed path p and returns its unpacked
// whole-log mask.
func (ev *Evaluator) ExplainedBools(p pathmodel.Path) []bool { return ev.Prepare(p).ExplainedBools() }

// ConnectedBools prepares the open path p and returns its unpacked
// ConnectedRows mask.
func (ev *Evaluator) ConnectedBools(p pathmodel.Path) []bool { return ev.Prepare(p).ConnectedBools() }

// ConnectedRange is ConnectedRows over the log rows [lo, hi), written into
// dst as ExplainedRange writes. The product classifies open paths over the
// whole log only; the range tests stitch open plans through the same
// rangeRows ExplainedRange uses.
func (pp *Prepared) ConnectedRange(lo, hi int, dst *bitset.Bits) {
	if pp.ent.pl.closed {
		panic("query: ConnectedRange requires an open path")
	}
	pp.rangeRows(lo, hi, dst)
}

// DistinctPairs is the DISTINCT projection of t's (from, to) columns, the
// Value-keyed reference the lowered pair CSRs are pinned to: each
// from-value maps to the sorted, de-duplicated to-values paired with it.
func DistinctPairs(t *relation.Table, from, to string) map[relation.Value][]relation.Value {
	fi, _ := t.ColumnIndex(from)
	ti, _ := t.ColumnIndex(to)
	out := make(map[relation.Value][]relation.Value)
	for r := 0; r < t.NumRows(); r++ {
		f, v := t.Cell(r, fi), t.Cell(r, ti)
		if vs := out[f]; !slices.Contains(vs, v) {
			out[f] = append(vs, v)
		}
	}
	for _, vs := range out {
		slices.SortFunc(vs, relation.Value.Compare)
	}
	return out
}

// SupportNaive computes the same COUNT(DISTINCT Log.Lid) as Support but with
// a per-row nested join over table rows, without the DISTINCT projections or
// semi-join value propagation. Join resolution is indexed: Via-bridge hops
// and bind-column lookups go through relation.Table's hash indexes instead
// of scanning every row. It is the differential oracle for tests: Support
// and SupportNaive must always agree. For the fully index-free baseline see
// SupportScan.
func (ev *Evaluator) SupportNaive(p pathmodel.Path) int { return countTrue(ev.nestedRows(p, true)) }

// ExplainedRowsDecorated is ExplainedRowsDecoratedRange over the whole
// audited log, unpacked.
func (ev *Evaluator) ExplainedRowsDecorated(dp pathmodel.DecoratedPath) []bool {
	n := ev.log.NumRows()
	m := bitset.New(n)
	ev.ExplainedRowsDecoratedRange(dp, 0, n, m)
	return Bools(m)
}

// Repeats is the engine's repeat-access view (repeats).
type Repeats = repeats

// Repeats returns the repeat-access state of every audited row.
func (ev *Evaluator) Repeats() Repeats { return ev.repeats() }

// Explains reports whether audited row r is a repeat access.
func (rp Repeats) Explains(r int) bool { return rp.explains(r) }

// SupportDecorated returns COUNT(DISTINCT Log.Lid) of the decorated
// template.
func (ev *Evaluator) SupportDecorated(dp pathmodel.DecoratedPath) int {
	return countTrue(ev.ExplainedRowsDecorated(dp))
}

// InvalidatePlans drops every cached plan, forcing the next Prepare of each
// path to recompile. The cache already self-invalidates when the database
// version changes; this exists for tests that race compilation or count
// it. It affects all cursors sharing the engine.
func (ev *Evaluator) InvalidatePlans() {
	eng := ev.engine
	eng.planMu.Lock()
	eng.resetPlans()
	eng.planMu.Unlock()
}

// countTrue returns the number of true verdicts.
func countTrue(rows []bool) int {
	n := 0
	for _, ok := range rows {
		if ok {
			n++
		}
	}
	return n
}

// SupportScan is the fully unoptimized baseline: the same per-row nested
// join as SupportNaive, but every hop is resolved with a full linear scan of
// the joined table — no hash indexes, no DISTINCT projections, no semi-join
// propagation. It is a second differential oracle (Support == SupportNaive
// == SupportScan); it never touches the tables' lazy index caches, so it
// also validates results independently of index construction.
func (ev *Evaluator) SupportScan(p pathmodel.Path) int { return countTrue(ev.nestedRows(p, false)) }

// nestedRows is the nested join behind SupportNaive (indexed) and
// SupportScan: one verdict per audited row, true when some tuple chain from
// the row's start value satisfies every condition of p (closing at the
// row's end value). The indexed mode builds each (table, column) index it
// needs once per call; the scan mode compares the column's cells in place.
func (ev *Evaluator) nestedRows(p pathmodel.Path, indexed bool) []bool {
	insts := p.Instances()
	conds := p.Conds()
	starts, ends := ev.orient(p)
	type tableColumn struct {
		t   *relation.Table
		col string
	}
	indexes := make(map[tableColumn]map[relation.Value][]int)

	// match visits the rows of t whose column col holds v until visit
	// accepts one, and reports whether one was accepted.
	match := func(t *relation.Table, col string, v relation.Value, visit func(r int) bool) bool {
		if indexed {
			k := tableColumn{t, col}
			if indexes[k] == nil {
				indexes[k] = t.Index(col)
			}
			for _, r := range indexes[k][v] {
				if visit(r) {
					return true
				}
			}
			return false
		}
		ci, _ := t.ColumnIndex(col)
		for r := 0; r < t.NumRows(); r++ {
			if t.Cell(r, ci) == v && visit(r) {
				return true
			}
		}
		return false
	}

	// exists reports whether a tuple chain satisfies the conditions from
	// cond ci onward, starting with the value current and closing at end.
	var exists func(ci int, current, end relation.Value) bool
	exists = func(ci int, current, end relation.Value) bool {
		if ci == len(conds) {
			return true
		}
		c := conds[ci]
		// step continues the chain from one right-hand candidate value.
		step := func(v relation.Value) bool {
			if c.RightInst == 0 {
				return v == end
			}
			in := insts[c.RightInst]
			t := ev.db.MustTable(in.Table)
			return match(t, in.Entry, v, func(r int) bool {
				next := relation.Null()
				if xi, ok := t.ColumnIndex(in.Exit); ok {
					next = t.Cell(r, xi)
				}
				return exists(ci+1, next, end)
			})
		}
		if c.Via == nil {
			return step(current)
		}
		bt := ev.db.MustTable(c.Via.Table)
		ti, _ := bt.ColumnIndex(c.Via.ToColumn)
		return match(bt, c.Via.FromColumn, current, func(r int) bool { return step(bt.Cell(r, ti)) })
	}

	out := make([]bool, len(starts))
	for r := range starts {
		out[r] = exists(0, starts[r], ends[r])
	}
	return out
}

// orient returns the per-row start and end value columns for the path's
// direction: (patients, users) for forward paths, (users, patients) for
// backward paths.
func (ev *Evaluator) orient(p pathmodel.Path) (starts, ends []relation.Value) {
	patients, users := ev.logColumns()
	if p.Forward() {
		return patients, users
	}
	return users, patients
}

// logColumns returns the audited log's Patient and User columns.
func (ev *Evaluator) logColumns() (patients, users []relation.Value) {
	for r := range ev.log.NumRows() {
		patients = append(patients, ev.log.Cell(r, ev.logPatientIdx))
		users = append(users, ev.log.Cell(r, ev.logUserIdx))
	}
	return patients, users
}

// ScanRows is the per-row form of SupportScan: the index-free nested join's
// verdict for every audited row, the reference the engine's row masks are
// pinned to.
func (ev *Evaluator) ScanRows(p pathmodel.Path) []bool { return ev.nestedRows(p, false) }

// InstancesReference is the blind depth-first search Instances ran before
// the compiled enumerator replaced it, kept as the differential oracle: it
// walks forward from Log.Patient resolving every table and column by name
// at every node and never uses the row's user before the closing
// condition. Within one call it finds each (table, column, value) posting
// list by one scan of the column (relation.Table.Find) and builds each
// bridge projection once. It returns the bindings and the number of search nodes
// (dfs calls) it made, and counts the postings it consumed on the cursor.
func (ev *Evaluator) InstancesReference(p pathmodel.Path, logRow, limit int) ([]InstanceBinding, int) {
	if !p.Closed() {
		panic("query: Instances requires a closed path")
	}
	if !p.Forward() {
		p = p.Reverse()
	}
	if limit <= 0 {
		limit = 1
	}
	insts := p.Instances()
	conds := p.Conds()
	patient := ev.log.Cell(logRow, ev.logPatientIdx)
	user := ev.log.Cell(logRow, ev.logUserIdx)
	type posting struct {
		t   *relation.Table
		col string
		v   relation.Value
	}
	postings := make(map[posting][]int)
	bridges := make(map[schemagraph.Bridge]map[relation.Value][]relation.Value)

	var out []InstanceBinding
	rows := make([]int, 0, len(insts)-1)
	nodes := 0

	var dfs func(ci int, current relation.Value) bool
	dfs = func(ci int, current relation.Value) bool {
		nodes++
		if ci == len(conds) {
			out = append(out, InstanceBinding{Rows: append([]int(nil), rows...)})
			return len(out) >= limit
		}
		c := conds[ci]
		// Candidate values on the right-hand side after bridge translation,
		// streamed lazily: the singleton current value, or the bridge's
		// pair-value postings.
		candidates := func(yield func(relation.Value) bool) { yield(current) }
		if c.Via != nil {
			pairs, ok := bridges[*c.Via]
			if !ok {
				pairs = DistinctPairs(ev.db.MustTable(c.Via.Table), c.Via.FromColumn, c.Via.ToColumn)
				bridges[*c.Via] = pairs
			}
			bridged := pairs[current]
			candidates = func(yield func(relation.Value) bool) {
				for _, v := range bridged {
					ev.postingsScanned++
					if !yield(v) {
						return
					}
				}
			}
		}
		if c.RightInst == 0 {
			// Closing condition: some candidate must equal this row's user.
			matched := false
			for v := range candidates {
				if v == user {
					matched = true
					break
				}
			}
			if matched {
				return dfs(ci+1, user)
			}
			return false
		}
		in := insts[c.RightInst]
		t := ev.db.MustTable(in.Table)
		done := false
		for v := range candidates {
			k := posting{t, in.Entry, v}
			list, ok := postings[k]
			if !ok {
				ci, _ := t.ColumnIndex(in.Entry)
				list = t.Find(ci, v)
				postings[k] = list
			}
			for _, r := range list {
				ev.postingsScanned++
				rows = append(rows, r)
				next := relation.Null()
				if in.Exit != "" {
					next = t.Get(r, in.Exit)
				}
				done = dfs(ci+1, next)
				rows = rows[:len(rows)-1]
				if done {
					break
				}
			}
			if done {
				break
			}
		}
		return done
	}
	dfs(0, patient)
	return out, nodes
}

// LoweredProjection is one projection the engine has lowered, decoded back
// to values: Pairs maps each from-value to its posting list in CSR order,
// or, for an exists set (B empty), Set holds its members.
type LoweredProjection struct {
	Table *relation.Table
	A, B  string
	Pairs map[relation.Value][]relation.Value
	Set   map[relation.Value]bool
}

// LoweredProjections decodes every projection the engine has lowered.
func (ev *Evaluator) LoweredProjections() []LoweredProjection {
	vals := ev.dict.values()
	ev.baseMu.Lock()
	defer ev.baseMu.Unlock()
	var out []LoweredProjection
	for k, b := range ev.bases {
		lp := LoweredProjection{Table: b.t, A: k.a, B: k.b}
		if b.pairs != nil {
			lp.Pairs = make(map[relation.Value][]relation.Value)
			for v := range len(b.pairs.off) - 1 {
				for _, w := range b.pairs.list(uint32(v)) {
					lp.Pairs[vals[v]] = append(lp.Pairs[vals[v]], vals[w])
				}
			}
		} else {
			lp.Set = make(map[relation.Value]bool)
			for v := range vals {
				if b.set.has(uint32(v)) {
					lp.Set[vals[v]] = true
				}
			}
		}
		out = append(out, lp)
	}
	return out
}

// InternedLogRows returns how many audited log rows the engine's ID
// projections cover.
func (ev *Evaluator) InternedLogRows() int { return len(ev.proj.Load().patientID) }

// InternedColumn is one column the engine has interned, decoded back to
// values, with its distinct count.
type InternedColumn struct {
	Table  *relation.Table
	Column string
	Values []relation.Value
	NDV    int
}

// InternedColumns decodes every column the engine has interned.
func (ev *Evaluator) InternedColumns() []InternedColumn {
	vals := ev.dict.values()
	ev.baseMu.Lock()
	defer ev.baseMu.Unlock()
	var out []InternedColumn
	for k, c := range ev.cols {
		ic := InternedColumn{Table: c.t, Column: k.col, NDV: c.ndv}
		for _, id := range c.ids {
			ic.Values = append(ic.Values, vals[id])
		}
		out = append(out, ic)
	}
	return out
}
