package query

import (
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// SupportNaive computes the same COUNT(DISTINCT Log.Lid) as Support but with
// a per-row nested join over table rows, without the DISTINCT projections or
// semi-join value propagation. Join resolution is indexed: Via-bridge hops
// and bind-column lookups go through relation.Table's hash indexes instead
// of scanning every row, so the ablation against Support isolates the
// "Reducing Result Multiplicity" optimization rather than mixing in the cost
// of linear scans. It is the differential oracle for tests: Support and
// SupportNaive must always agree. For the fully index-free baseline see
// SupportScan.
func (ev *Evaluator) SupportNaive(p pathmodel.Path) int { return countTrue(ev.nestedRows(p, true)) }

// SupportScan is the fully unoptimized baseline: the same per-row nested
// join as SupportNaive, but every hop is resolved with a full linear scan of
// the joined table — no hash indexes, no DISTINCT projections, no semi-join
// propagation. It exists as the index-on/index-off ablation counterpart and
// as a second differential oracle (Support == SupportNaive == SupportScan);
// it never touches the tables' lazy index caches, so it also validates
// results independently of index construction.
func (ev *Evaluator) SupportScan(p pathmodel.Path) int { return countTrue(ev.nestedRows(p, false)) }

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
