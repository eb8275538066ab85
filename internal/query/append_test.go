package query_test

import (
	"reflect"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// TestPlanCacheSurvivesLogAppend pins the append-aware invalidation split:
// appending rows to the audited log must keep every compiled plan (no new
// cache misses — the plans read only event tables), extend the log-column
// projections so classification covers the new rows, and leave the old
// rows' prefix byte-identical, matching a freshly built evaluator over the
// grown database.
func TestPlanCacheSurvivesLogAppend(t *testing.T) {
	db := figure3DB()
	closed, open := preparedPaths(t)
	ev := query.NewEvaluator(db)

	beforeClosed := ev.Prepare(closed).ExplainedBools()
	beforeOpen := ev.Prepare(open).ConnectedBools()
	misses := ev.PlanCacheStats().Misses

	log := db.MustTable("Log")
	n0 := log.NumRows()
	// Alice re-appears with a new, later access (Lid 6): her appointment
	// with Dave explains it, so the appended row must classify true.
	log.Append(relation.Int(6), relation.Date(4), relation.Int(dave), relation.Int(alice))

	afterClosed := ev.Prepare(closed).ExplainedBools()
	afterOpen := ev.Prepare(open).ConnectedBools()
	if got := ev.PlanCacheStats().Misses; got != misses {
		t.Errorf("log append recompiled plans: misses %d -> %d", misses, got)
	}
	if len(afterClosed) != n0+1 || len(afterOpen) != n0+1 {
		t.Fatalf("projections not extended: lengths %d, %d, want %d",
			len(afterClosed), len(afterOpen), n0+1)
	}
	if !reflect.DeepEqual(afterClosed[:n0], beforeClosed) {
		t.Errorf("closed prefix changed across append:\n got %v\nwant %v", afterClosed[:n0], beforeClosed)
	}
	if !reflect.DeepEqual(afterOpen[:n0], beforeOpen) {
		t.Errorf("open prefix changed across append:\n got %v\nwant %v", afterOpen[:n0], beforeOpen)
	}

	// A from-scratch evaluator over the grown database is the oracle.
	fresh := query.NewEvaluator(db)
	if want := fresh.Prepare(closed).ExplainedBools(); !reflect.DeepEqual(afterClosed, want) {
		t.Errorf("incremental closed rows = %v, want %v", afterClosed, want)
	}
	if want := fresh.Prepare(open).ConnectedBools(); !reflect.DeepEqual(afterOpen, want) {
		t.Errorf("incremental open rows = %v, want %v", afterOpen, want)
	}
	if !afterClosed[n0] {
		t.Error("appended repeat appointment access not explained")
	}
}

// TestPlanCacheEventTableAppendInvalidatesOnlyReaders verifies the per-plan
// dependency tracking: appending to one event table recompiles only the
// plans that snapshotted it, while plans over other tables keep their cache
// entries.
func TestPlanCacheEventTableAppendInvalidatesOnlyReaders(t *testing.T) {
	db := figure3DB()
	closed, open := preparedPaths(t) // closed reads Appointments+UserMapping; open reads Appointments
	ev := query.NewEvaluator(db)

	ev.Prepare(closed).ExplainedBools()
	ev.Prepare(open).ConnectedBools()
	misses := ev.PlanCacheStats().Misses

	// Groups is read by neither path; appending to it must not recompile.
	db.MustTable("Groups").Append(relation.Int(1), relation.Int(3), relation.Int(mike))
	ev.Prepare(closed).ExplainedBools()
	ev.Prepare(open).ConnectedBools()
	if got := ev.PlanCacheStats().Misses; got != misses {
		t.Errorf("append to unread table recompiled plans: misses %d -> %d", misses, got)
	}

	// Appointments is read by both paths; each must recompile exactly once,
	// and the recompiled plans must see the new row.
	db.MustTable("Appointments").Append(relation.Int(carol), relation.Date(2), relation.Int(mike+100))
	afterClosed := ev.Prepare(closed).ExplainedBools()
	ev.Prepare(open).ConnectedBools()
	if got := ev.PlanCacheStats().Misses; got != misses+2 {
		t.Errorf("append to read table: misses %d -> %d, want +2", misses, got)
	}
	if !afterClosed[3] {
		t.Error("recompiled plan missed the appended appointment (row 3, mike->carol)")
	}
}
