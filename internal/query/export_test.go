package query

import (
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

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
	pr := ev.projections()
	patient := pr.patients[logRow]
	user := pr.users[logRow]

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
			bridged := bt.PairValues(c.Via.FromColumn, c.Via.ToColumn, current)
			candidates = func(yield func(relation.Value) bool) {
				for v := range bridged {
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
			for r := range t.Postings(in.Entry, v) {
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
