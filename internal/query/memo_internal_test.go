package query

import (
	"reflect"
	"testing"

	"repro/internal/pathmodel"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// memoDB builds a tiny database for a bridged closed path: A(P, D) fans
// patients out to doctors and the bridge M(F, T) translates doctors into
// audit ids. Log rows 0-2 are explained; row 3's user is not patient 2's
// doctor and row 4's user is in no table.
func memoDB() *relation.Database {
	db := relation.NewDatabase()
	log := relation.NewTable(pathmodel.LogTable,
		pathmodel.LogIDColumn, pathmodel.LogDateColumn,
		pathmodel.LogUserColumn, pathmodel.LogPatientColumn)
	for i, pu := range [][2]int64{{100, 1}, {200, 2}, {300, 3}, {100, 2}, {999, 1}} {
		log.Append(relation.Int(int64(i)), relation.Int(1),
			relation.Int(pu[0]), relation.Int(pu[1]))
	}
	db.AddTable(log)

	a := relation.NewTable("A", "P", "D")
	for _, pd := range [][2]int64{{1, 10}, {2, 20}, {3, 30}, {1, 30}} {
		a.Append(relation.Int(pd[0]), relation.Int(pd[1]))
	}
	db.AddTable(a)

	m := relation.NewTable("M", "F", "T")
	for _, ft := range [][2]int64{{10, 100}, {20, 200}, {30, 300}} {
		m.Append(relation.Int(ft[0]), relation.Int(ft[1]))
	}
	db.AddTable(m)
	return db
}

// memoClosedPath is Start -> A.P, A.D -> End via M: compiled to
// [opMap A(P->D), opBridge M(F->T), opClose].
func memoClosedPath(t *testing.T) pathmodel.Path {
	t.Helper()
	attr := func(t, c string) schemagraph.Attr { return schemagraph.Attr{Table: t, Column: c} }
	bridge := &schemagraph.Bridge{Table: "M", FromColumn: "F", ToColumn: "T"}
	p, ok := pathmodel.Start(schemagraph.Edge{
		From: pathmodel.StartAttr(), To: attr("A", "P"), Kind: schemagraph.KeyFK})
	if !ok {
		t.Fatal("start edge rejected")
	}
	p, ok = p.Append(schemagraph.Edge{
		From: attr("A", "D"), To: pathmodel.EndAttr(),
		Kind: schemagraph.KeyFK, Via: bridge})
	if !ok {
		t.Fatal("close edge rejected")
	}
	return p
}

// TestMemoGenerationWrap puts the cursor's memo generation one step from
// its limit, so the next evaluation's first group wraps it. Every memo entry
// is first forged to read "generation 1: no witness" — what a long-lived
// cursor could hold from its very first group — so the wrap must really wipe
// the memos: restarting the count over stale stamps would revive them as
// current verdicts.
func TestMemoGenerationWrap(t *testing.T) {
	ev := NewEvaluator(memoDB())
	pp := ev.Prepare(memoClosedPath(t))
	want := pp.ExplainedRows()
	if !reflect.DeepEqual(want, []bool{true, true, true, false, false}) {
		t.Fatalf("ExplainedRows = %v before the wrap", want)
	}
	for _, m := range ev.scratch.memo {
		for v := range m {
			m[v] = 1 << 1
		}
	}
	ev.scratch.gen = genLimit - 1
	if got := pp.ExplainedRows(); !reflect.DeepEqual(got, want) {
		t.Errorf("ExplainedRows across the generation wrap = %v, want %v", got, want)
	}
	if g := ev.scratch.gen; g == 0 || g >= genLimit-1 {
		t.Errorf("generation = %d after the wrap, want a small restart", g)
	}
	if got := pp.Support(); got != 3 {
		t.Errorf("Support after the wrap = %d, want 3", got)
	}
}
