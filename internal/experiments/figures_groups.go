package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/accesslog"
	"repro/internal/bitset"
	"repro/internal/explain"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// GroupComposition describes one collaborative group by the department codes
// of its members, the analogue of Figures 10 and 11.
type GroupComposition struct {
	GroupID  int
	Size     int
	Dominant string         // most frequent department code
	Counts   map[string]int // department code -> member count
}

// GroupCompositionFigure is the rendered group-composition result.
type GroupCompositionFigure struct {
	Title  string
	Groups []GroupComposition
}

// Render prints each group's department-code histogram.
func (f GroupCompositionFigure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	for _, g := range f.Groups {
		fmt.Fprintf(&b, "  group %d (%d members, dominant: %s)\n", g.GroupID, g.Size, g.Dominant)
		type kv struct {
			code string
			n    int
		}
		var rows []kv
		for c, n := range g.Counts {
			rows = append(rows, kv{c, n})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].n != rows[j].n {
				return rows[i].n > rows[j].n
			}
			return rows[i].code < rows[j].code
		})
		for _, r := range rows {
			fmt.Fprintf(&b, "    %-45s %d\n", r.code, r.n)
		}
	}
	return b.String()
}

// Figure10_11 inspects the department-code composition of the largest
// depth-1 collaborative groups. In the paper the two highlighted groups were
// the Cancer Center (with radiology, pathology, and pharmacy members) and
// Psychiatric Care (with rotating medical students); the generator seeds the
// same structure, so the dominant codes tell the same story.
func Figure10_11(e *Env, topN int) GroupCompositionFigure {
	if topN <= 0 {
		topN = 2
	}
	depth := 1
	if depth > e.Hierarchy.MaxDepth() {
		depth = e.Hierarchy.MaxDepth()
	}
	byGroup := e.Hierarchy.GroupsAt(depth)

	deptOf := make(map[relation.Value]string)
	dept := e.DS.DB.MustTable("DeptCodes")
	user, _ := dept.ColumnIndex("User")
	code, _ := dept.ColumnIndex("Dept")
	for r := 0; r < dept.NumRows(); r++ {
		deptOf[dept.Cell(r, user)] = dept.Cell(r, code).Str
	}

	var comps []GroupComposition
	for gid, members := range byGroup {
		c := GroupComposition{GroupID: gid, Size: len(members), Counts: make(map[string]int)}
		for _, u := range members {
			c.Counts[deptOf[u]]++
		}
		best, bestN := "", 0
		for code, n := range c.Counts {
			if n > bestN || (n == bestN && code < best) {
				best, bestN = code, n
			}
		}
		c.Dominant = best
		comps = append(comps, c)
	}
	sort.Slice(comps, func(i, j int) bool {
		if comps[i].Size != comps[j].Size {
			return comps[i].Size > comps[j].Size
		}
		return comps[i].GroupID < comps[j].GroupID
	})
	if len(comps) > topN {
		comps = comps[:topN]
	}
	return GroupCompositionFigure{
		Title:  fmt.Sprintf("Figures 10/11: department codes in the %d largest depth-%d collaborative groups", topN, depth),
		Groups: comps,
	}
}

// testSetup bundles the combined day-7 test log used by Figures 12 and 14.
type testSetup struct {
	combined *relation.Table
	realRows int          // the combined log's first realRows rows are real
	hasEvent *bitset.Bits // patient has a data set A event (normalized recall)
}

// testDaySetup builds the day-7 first accesses + fake log test set and the
// per-row event mask, evaluated against the given historical database.
// includeB widens the event mask to data set B orders; Figure 12 normalizes
// against data set A events only, while Figure 14's mined templates span
// both data sets.
func (e *Env) testDaySetup(db *relation.Database, includeB bool) (*query.Evaluator, testSetup) {
	real := e.TestDayFirstAccesses()
	fake := e.FakeFor(real)
	combined, realRows := accesslog.Combine(real, fake)
	ev := query.NewEvaluatorWithLog(db, combined)

	var eventMasks []*bitset.Bits
	for _, ind := range explain.Indicators(includeB) {
		eventMasks = append(eventMasks, ev.Prepare(ind.Path).ConnectedRows())
	}
	if includeB {
		// Mined templates can route through the historical log itself
		// (co-access paths), so "the patient has some event" must include
		// having been accessed before; otherwise normalized recall could
		// exceed 1 for event-less but previously accessed patients.
		eventMasks = append(eventMasks, ev.Prepare(logPresenceIndicator()).ConnectedRows())
	}
	return ev, testSetup{combined: combined, realRows: realRows, hasEvent: bitset.Union(eventMasks...)}
}

// logPresenceIndicator is the open path Log.Patient = Log2.Patient: the
// audited patient appears in the (historical) log.
func logPresenceIndicator() pathmodel.Path {
	attr := schemagraph.Attr{Table: pathmodel.LogTable, Column: pathmodel.LogPatientColumn}
	p, ok := pathmodel.Start(schemagraph.Edge{From: attr, To: attr, Kind: schemagraph.SelfJoin})
	if !ok {
		panic("experiments: failed to build log-presence indicator")
	}
	return p
}

// Figure12 sweeps the collaborative-group hierarchy depth and measures the
// precision, recall, and normalized recall of the group-based hand-crafted
// templates (data set A) on day-7 first accesses mixed with the fake log.
// Depth 0 is the all-users-in-one-group baseline; the final row replaces
// groups with the same-department-code templates, which the paper found
// weaker because doctors and their nurses carry different codes.
func Figure12(e *Env) PRFigure {
	fig := PRFigure{Title: "Figure 12: group predictive power vs hierarchy depth (day-7 first accesses, data set A)"}
	cat := explain.Handcrafted(false, true)

	maxDepth := e.Hierarchy.MaxDepth()
	for depth := 0; depth <= maxDepth; depth++ {
		gt := e.Hierarchy.TableAtDepth("Groups", depth)
		db := e.HistoricalDB(gt)
		ev, ts := e.testDaySetup(db, false)

		var masks []*bitset.Bits
		for _, t := range cat.GroupLen4A {
			masks = append(masks, templateMask(ev, t))
		}
		fig.Rows = append(fig.Rows, score(bitset.Union(masks...), ts.realRows, ts.hasEvent).row(fmt.Sprintf("depth %d", depth)))
	}

	// Same-department baseline.
	db := e.HistoricalDB(nil)
	ev, ts := e.testDaySetup(db, false)
	var masks []*bitset.Bits
	for _, t := range cat.DeptLen4 {
		masks = append(masks, templateMask(ev, t))
	}
	fig.Rows = append(fig.Rows, score(bitset.Union(masks...), ts.realRows, ts.hasEvent).row("same dept."))
	return fig
}

// Figure12Decorated computes the Figure 12 depth sweep through the
// §5.3.4 future-work mechanism instead of per-depth Groups tables: the
// database keeps the full hierarchy and each row's templates carry a
// GroupDepth decoration. The masks are provably identical to Figure12's
// (tests assert it); what changes is the machinery, which is the point —
// decorated templates let an administrator tune precision without
// materializing new tables.
func Figure12Decorated(e *Env) PRFigure {
	fig := PRFigure{Title: "Figure 12 (decorated variant): depth restriction via GroupDepth decorations"}
	full := e.Hierarchy.Table("Groups")
	db := e.HistoricalDB(full)
	ev, ts := e.testDaySetup(db, false)

	events := []struct{ table, noun string }{
		{"Appointments", "an appointment"},
		{"Visits", "a visit"},
		{"Documents", "a document produced"},
	}
	maxDepth := e.Hierarchy.MaxDepth()
	for depth := 0; depth <= maxDepth; depth++ {
		var masks []*bitset.Bits
		for _, evt := range events {
			tpl := explain.DepthRestrictedGroupTemplate(
				fmt.Sprintf("%s-d%d", evt.table, depth), evt.table, evt.noun, depth)
			masks = append(masks, templateMask(ev, tpl))
		}
		fig.Rows = append(fig.Rows, score(bitset.Union(masks...), ts.realRows, ts.hasEvent).row(fmt.Sprintf("depth %d", depth)))
	}
	return fig
}
