package explain

import (
	"slices"

	"repro/internal/pathmodel"
)

// TemplateTables returns the names of the tables template t reads beyond
// the audited log row itself (path instances, bridge tables, and — for a
// path that self-joins the Log, such as repeat access — the Log table).
// The auditing layer uses this to invalidate only the cached masks a table
// mutation can actually affect.
func TemplateTables(t Template) []string {
	return pathTables(t.pathTemplate().Path)
}

// pathTables lists the distinct table names of a path's non-log instances
// and bridge hops, plus the Log table when the path self-joins it.
func pathTables(p pathmodel.Path) []string {
	insts := p.Instances()
	seen := make(map[string]bool)
	var out []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, in := range insts[1:] {
		add(in.Table)
	}
	for _, c := range p.Conds() {
		if c.Via != nil {
			add(c.Via.Table)
		}
	}
	return out
}

// AppendMonotone reports whether t's classification of already-audited rows
// is invariant under chronological log growth: appending rows that sort
// strictly after every existing row by (Date, Lid) — the shape of a real
// append-only access log — can mark the *new* rows explained but can never
// flip an existing row. When it holds, a cached mask stays a valid prefix
// and the incremental audit path extends it by evaluating only the new
// suffix; when it does not, the mask must be rebuilt from row 0 on growth.
//
// The catalog satisfies it almost everywhere:
//
//   - a path template that never self-joins the Log reads only event
//     tables, which appending log rows does not touch;
//   - a path template whose path self-joins the Log qualifies when every
//     Log instance is pinned to the past by a log-order decoration
//     (Log2.LogOrder < L.LogOrder, as in RepeatAccess): it binds only
//     strictly *earlier* (Date, Lid) history, which later rows cannot
//     provide.
//
// Anything else — notably a mined closed path that self-joins the Log with
// no temporal guard, where a future access can retroactively explain a past
// one, or any path bridged through the Log — reports false.
func AppendMonotone(t Template) bool {
	tpl := t.pathTemplate()
	for _, c := range tpl.Path.Conds() {
		if c.Via != nil && c.Via.Table == pathmodel.LogTable {
			return false
		}
	}
	for i, in := range tpl.Path.Instances() {
		if i > 0 && in.Table == pathmodel.LogTable && !pastPinned(tpl.Decorations, i) {
			return false
		}
	}
	return true
}

// pastPinned reports whether some decoration confines log instance inst to
// accesses strictly before the audited row in log order
// (pathmodel.Decoration.PinsPast). Log order is (Date, Lid), not Lid alone,
// so the rule holds for a log whose Lids are not chronological.
func pastPinned(decs []pathmodel.Decoration, inst int) bool {
	return slices.ContainsFunc(decs, func(d pathmodel.Decoration) bool { return d.PinsPast(inst) })
}
