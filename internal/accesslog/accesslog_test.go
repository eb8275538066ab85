package accesslog_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/accesslog"
	"repro/internal/relation"
)

func mkLog(rows ...[4]int64) *relation.Table { // lid, day, user, patient
	t := accesslog.NewLogTable("Log")
	for _, r := range rows {
		t.Append(relation.Int(r[0]), relation.Date(int(r[1])), relation.Int(r[2]), relation.Int(r[3]))
	}
	return t
}

func TestFilterDays(t *testing.T) {
	log := mkLog([4]int64{1, 0, 1, 1}, [4]int64{2, 1, 1, 1}, [4]int64{3, 2, 1, 1}, [4]int64{4, 6, 1, 1})
	got := accesslog.FilterDays(log, 1, 2)
	if got.NumRows() != 2 {
		t.Fatalf("FilterDays rows = %d, want 2", got.NumRows())
	}
	if got.Get(0, "Lid") != relation.Int(2) || got.Get(1, "Lid") != relation.Int(3) {
		t.Error("FilterDays picked wrong rows")
	}
	if accesslog.FilterDays(log, 3, 5).NumRows() != 0 {
		t.Error("empty range not empty")
	}
}

func TestFirstAccesses(t *testing.T) {
	log := mkLog(
		[4]int64{1, 0, 10, 1}, // first (10,1)
		[4]int64{2, 0, 10, 1}, // same-day repeat, later lid
		[4]int64{3, 1, 10, 1}, // repeat
		[4]int64{4, 1, 11, 1}, // first (11,1)
		[4]int64{5, 0, 10, 2}, // first (10,2)
	)
	firsts := accesslog.FirstAccesses(log)
	if firsts.NumRows() != 3 {
		t.Fatalf("FirstAccesses rows = %d, want 3", firsts.NumRows())
	}
	wantLids := map[int64]bool{1: true, 4: true, 5: true}
	for r := 0; r < firsts.NumRows(); r++ {
		lid := firsts.Get(r, "Lid").AsInt()
		if !wantLids[lid] {
			t.Errorf("unexpected first access Lid %d", lid)
		}
	}
}

func TestFirstAccessesSameDayTieBreaksByLid(t *testing.T) {
	// Later row in the table but earlier Lid and same day: the earlier Lid
	// wins.
	log := mkLog([4]int64{9, 0, 10, 1}, [4]int64{2, 0, 10, 1})
	firsts := accesslog.FirstAccesses(log)
	if firsts.NumRows() != 1 || firsts.Get(0, "Lid") != relation.Int(2) {
		t.Errorf("tie-break wrong: %v", firsts.Get(0, "Lid"))
	}
}

func TestFirstAccessRowsMatchesFirstAccesses(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var rows [][4]int64
		n := 1 + r.Intn(40)
		for i := 0; i < n; i++ {
			rows = append(rows, [4]int64{int64(i + 1), int64(r.Intn(5)), int64(r.Intn(4)), int64(r.Intn(4))})
		}
		log := mkLog(rows...)
		mask := accesslog.FirstAccessRows(log)
		firsts := accesslog.FirstAccesses(log)

		// Exactly the marked rows appear in the extracted table.
		marked := 0
		for _, m := range mask {
			if m {
				marked++
			}
		}
		if marked != firsts.NumRows() {
			return false
		}
		// One first access per distinct pair.
		pairs := make(map[[2]int64]bool)
		for r0 := 0; r0 < log.NumRows(); r0++ {
			pairs[[2]int64{log.Get(r0, "User").AsInt(), log.Get(r0, "Patient").AsInt()}] = true
		}
		return marked == len(pairs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCombine(t *testing.T) {
	real := mkLog([4]int64{1, 0, 10, 1}, [4]int64{2, 1, 11, 2})
	fake := mkLog([4]int64{100, 0, 12, 3})
	combined, realRows := accesslog.Combine(real, fake)
	if combined.NumRows() != 3 || realRows != 2 {
		t.Fatalf("Combine sizes: %d rows, %d real", combined.NumRows(), realRows)
	}
	for r, lid := range []int64{1, 2, 100} { // the real rows first
		if got := combined.Get(r, "Lid").AsInt(); got != lid {
			t.Errorf("row %d Lid = %d, want %d", r, got, lid)
		}
	}
	if combined.Name() != "Log" {
		t.Errorf("combined name = %q", combined.Name())
	}
}

func TestWithLog(t *testing.T) {
	db := relation.NewDatabase()
	db.AddTable(mkLog([4]int64{1, 0, 10, 1}))
	events := relation.NewTable("Appointments", "Patient", "Date", "Doctor")
	db.AddTable(events)

	sub := accesslog.FilterDays(db.MustTable("Log"), 0, 0)
	db2 := accesslog.WithLog(db, sub)
	if db2.MustTable("Appointments") != events {
		t.Error("WithLog did not share event tables")
	}
	if db2.MustTable("Log").NumRows() != 1 {
		t.Error("WithLog installed wrong log")
	}
	// Original database unchanged.
	if db.MustTable("Log").NumRows() != 1 {
		t.Error("original log mutated")
	}

	// A differently named table is renamed to Log.
	renamed := accesslog.NewLogTable("FakeLog")
	renamed.Append(relation.Int(5), relation.Date(0), relation.Int(1), relation.Int(1))
	db3 := accesslog.WithLog(db, renamed)
	if got := db3.MustTable("Log").Get(0, "Lid"); got != relation.Int(5) {
		t.Errorf("renamed log row = %v", got)
	}
}

func TestUserPatientPairs(t *testing.T) {
	log := mkLog(
		[4]int64{1, 0, 10, 1}, [4]int64{2, 1, 10, 1}, // duplicate pair
		[4]int64{3, 0, 10, 2}, [4]int64{4, 0, 11, 1},
	)
	if got := accesslog.UserPatientPairs(log); got != 3 {
		t.Errorf("UserPatientPairs = %d, want 3", got)
	}
}
