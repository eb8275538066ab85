package query_test

import (
	"testing"

	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
)

// TestRepeatsSnapshotKeepsItsValues pins the copy of the pair table an
// out-of-order append makes: a Repeats view taken before the log grows by a
// row that comes before its pair's first access answers as it did, while a
// view taken after sees that row as the pair's first access, and a pair
// first seen in the append as no repeat.
func TestRepeatsSnapshotKeepsItsValues(t *testing.T) {
	log := relation.NewTable(pathmodel.LogTable, pathmodel.LogIDColumn, pathmodel.LogDateColumn,
		pathmodel.LogUserColumn, pathmodel.LogPatientColumn)
	add := func(lid int64, day int, user int64) {
		log.Append(relation.Int(lid), relation.Date(day), relation.Int(user), relation.Int(1))
	}
	add(1, 5, 100) // pair (1, 100): first access
	add(2, 6, 100) // its repeat
	add(3, 6, 200) // pair (1, 200): first access
	db := relation.NewDatabase()
	db.AddTable(log)
	ev := query.NewEvaluator(db)
	check := func(stage string, rp query.Repeats, want []bool) {
		t.Helper()
		for r, w := range want {
			if got := rp.Explains(r); got != w {
				t.Errorf("%s: row %d explained = %v, want %v", stage, r, got, w)
			}
		}
	}
	before := ev.Repeats()
	check("before the append", before, []bool{false, true, false})
	add(4, 1, 100) // before pair (1, 100)'s first access
	add(5, 7, 300) // a new pair
	add(6, 7, 300)
	after := ev.Repeats()
	check("the old view after the append", before, []bool{false, true, false})
	check("a view after the append", after, []bool{true, true, false, false, false, true})
}
