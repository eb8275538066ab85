package explain

import (
	"repro/internal/pathmodel"
)

// TemplateTables returns the names of the tables template t reads beyond
// the audited log row itself (path instances, bridge tables, and — for the
// log-history templates — the Log table), and whether the template type is
// introspectable. Unknown template implementations report ok == false and
// callers must treat them as potentially reading anything. The auditing
// layer uses this to invalidate only the cached masks a table mutation can
// actually affect.
func TemplateTables(t Template) (tables []string, ok bool) {
	switch tpl := t.(type) {
	case *PathTemplate:
		return pathTables(tpl.Path), true
	case RepeatAccess:
		return []string{pathmodel.LogTable}, true
	default:
		return nil, false
	}
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
//   - RepeatAccess explains a row only from strictly *earlier* (Date, Lid)
//     history, which later rows cannot provide;
//   - a path template whose path self-joins the Log qualifies when every
//     Log instance is pinned to the past by a Lid-order decoration
//     (Log_k.Lid < L.Lid), the decorated repeat-access shape.
//
// Anything else — notably a mined closed path that self-joins the Log with
// no temporal guard, where a future access can retroactively explain a past
// one, or any path bridged through the Log — reports false, and unknown
// template types report false conservatively.
func AppendMonotone(t Template) bool {
	switch tpl := t.(type) {
	case *PathTemplate:
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
	case RepeatAccess:
		return true
	default:
		return false
	}
}

// pastPinned reports whether some decoration restricts log instance inst to
// rows strictly before the audited row in Lid order: Inst.Lid < L.Lid or
// the mirrored L.Lid > Inst.Lid. Lids increase with (Date, Lid) time in an
// append-only log, so the restriction confines the instance to history that
// appending can never change.
func pastPinned(decs []pathmodel.Decoration, inst int) bool {
	for _, d := range decs {
		if d.Const != nil {
			continue
		}
		lidRef := func(r pathmodel.Ref, i int) bool {
			return r.Inst == i && r.Col == pathmodel.LogIDColumn
		}
		if d.Op == pathmodel.OpLT && lidRef(d.Left, inst) && lidRef(d.Right, 0) {
			return true
		}
		if d.Op == pathmodel.OpGT && lidRef(d.Left, 0) && lidRef(d.Right, inst) {
			return true
		}
	}
	return false
}
