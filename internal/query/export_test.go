package query

import (
	"slices"

	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// QueriesEvaluated returns the number of exact support evaluations performed.
func (ev *Evaluator) QueriesEvaluated() int { return ev.queriesEvaluated }

// EstimatesIssued returns the number of cardinality estimates issued.
func (ev *Evaluator) EstimatesIssued() int { return ev.estimatesIssued }

// PostingsScanned returns the number of index postings and pair-list
// entries this cursor's lazy evaluations and instance enumerations have
// consumed. Like QueriesEvaluated it is per-cursor.
func (ev *Evaluator) PostingsScanned() int { return ev.postingsScanned }

// ConnectedRange is ConnectedRows over the log rows [lo, hi): element i is
// ConnectedRows()[lo+i]. The product classifies open paths over the whole
// log only; the range tests stitch open plans through the same rangeRows
// ExplainedRange uses.
func (pp *Prepared) ConnectedRange(lo, hi int) []bool {
	if pp.ent.pl.closed {
		panic("query: ConnectedRange requires an open path")
	}
	return pp.rangeRows(lo, hi)
}

// DistinctPairs is the DISTINCT projection of t's (from, to) columns, the
// Value-keyed reference the lowered pair CSRs are pinned to: each
// from-value maps to the sorted, de-duplicated to-values paired with it.
func DistinctPairs(t *relation.Table, from, to string) map[relation.Value][]relation.Value {
	fi, _ := t.ColumnIndex(from)
	ti, _ := t.ColumnIndex(to)
	out := make(map[relation.Value][]relation.Value)
	for r := 0; r < t.NumRows(); r++ {
		row := t.Row(r)
		if vs := out[row[fi]]; !slices.Contains(vs, row[ti]) {
			out[row[fi]] = append(vs, row[ti])
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
// audited log.
func (ev *Evaluator) ExplainedRowsDecorated(dp pathmodel.DecoratedPath) []bool {
	return ev.ExplainedRowsDecoratedRange(dp, 0, ev.log.NumRows())
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
// row's end value).
func (ev *Evaluator) nestedRows(p pathmodel.Path, indexed bool) []bool {
	insts := p.Instances()
	conds := p.Conds()
	starts, ends := ev.orient(p)

	// match visits the rows of t whose column col holds v until visit
	// accepts one, and reports whether one was accepted.
	match := func(t *relation.Table, col string, v relation.Value, visit func(row []relation.Value) bool) bool {
		if indexed {
			for _, r := range t.Index(col)[v] {
				if visit(t.Row(r)) {
					return true
				}
			}
			return false
		}
		ci, _ := t.ColumnIndex(col)
		for r := 0; r < t.NumRows(); r++ {
			if row := t.Row(r); row[ci] == v && visit(row) {
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
			return match(t, in.Entry, v, func(row []relation.Value) bool {
				next := relation.Null()
				if xi, ok := t.ColumnIndex(in.Exit); ok {
					next = row[xi]
				}
				return exists(ci+1, next, end)
			})
		}
		if c.Via == nil {
			return step(current)
		}
		bt := ev.db.MustTable(c.Via.Table)
		ti, _ := bt.ColumnIndex(c.Via.ToColumn)
		return match(bt, c.Via.FromColumn, current, func(row []relation.Value) bool { return step(row[ti]) })
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
		row := ev.log.Row(r)
		patients = append(patients, row[ev.logPatientIdx])
		users = append(users, row[ev.logUserIdx])
	}
	return patients, users
}

// ScanRows is the per-row form of SupportScan: the index-free nested join's
// verdict for every audited row, the reference the engine's row masks are
// pinned to.
func (ev *Evaluator) ScanRows(p pathmodel.Path) []bool { return ev.nestedRows(p, false) }

// InstancesReference is the blind depth-first search Instances ran before
// the compiled enumerator replaced it, kept verbatim as the differential
// oracle: it walks forward from Log.Patient resolving every table, index
// and column by name at every node and never uses the row's user before the
// closing condition. It returns the bindings and the number of search nodes
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
	patient := ev.log.Row(logRow)[ev.logPatientIdx]
	user := ev.log.Row(logRow)[ev.logUserIdx]

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
			bt := ev.db.MustTable(c.Via.Table)
			bridged := DistinctPairs(bt, c.Via.FromColumn, c.Via.ToColumn)[current]
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
			for _, r := range t.Index(in.Entry)[v] {
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
