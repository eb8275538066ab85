package query_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// preparedPaths returns a closed and an open test path over the Figure 3
// database: the bridged appointment template and its open prefix.
func preparedPaths(t *testing.T) (closed, open pathmodel.Path) {
	t.Helper()
	closed = mustPath(t,
		schemagraph.Edge{From: pathmodel.StartAttr(), To: attr("Appointments", "Patient"), Kind: schemagraph.KeyFK},
		schemagraph.Edge{From: attr("Appointments", "Doctor"), To: pathmodel.EndAttr(), Kind: schemagraph.KeyFK, Via: &toAudit},
	)
	open = mustPath(t,
		schemagraph.Edge{From: pathmodel.StartAttr(), To: attr("Appointments", "Patient"), Kind: schemagraph.KeyFK},
	)
	return closed, open
}

// TestPreparedMatchesOneShot pins the prepared handle to the legacy one-shot
// methods: Support, ExplainedRows, and ConnectedRows must agree exactly.
func TestPreparedMatchesOneShot(t *testing.T) {
	db := figure3DB()
	closed, open := preparedPaths(t)

	ev := query.NewEvaluator(db)
	pc := ev.Prepare(closed)
	po := ev.Prepare(open)

	if got, want := pc.Support(), ev.SupportNaive(closed); got != want {
		t.Errorf("Prepared.Support(closed) = %d, want %d", got, want)
	}
	if got, want := po.Support(), ev.SupportNaive(open); got != want {
		t.Errorf("Prepared.Support(open) = %d, want %d", got, want)
	}
	if got, want := pc.ExplainedRows(), ev.ExplainedRows(closed); !reflect.DeepEqual(got, want) {
		t.Errorf("Prepared.ExplainedRows = %v, want %v", got, want)
	}
	if got, want := po.ConnectedRows(), ev.ConnectedRows(open); !reflect.DeepEqual(got, want) {
		t.Errorf("Prepared.ConnectedRows = %v, want %v", got, want)
	}
}

// TestPreparedRangeStitching verifies the range contract: concatenating
// ExplainedRange / ConnectedRange over any partition of the log reproduces
// the full-range result exactly, including empty and single-row ranges.
func TestPreparedRangeStitching(t *testing.T) {
	db := figure3DB()
	closed, open := preparedPaths(t)
	ev := query.NewEvaluator(db)
	n := ev.Log().NumRows()

	partitions := [][]int{
		{0, n},
		{0, 0, n},
		{0, 1, n},
		{0, n - 1, n},
		{0, 1, 2, 3, 4, n},
		{0, 2, 2, 5},
	}
	full := ev.Prepare(closed).ExplainedRows()
	conn := ev.Prepare(open).ConnectedRows()
	for _, cuts := range partitions {
		var gotC, gotO []bool
		for i := 0; i+1 < len(cuts); i++ {
			gotC = append(gotC, ev.Prepare(closed).ExplainedRange(cuts[i], cuts[i+1])...)
			gotO = append(gotO, ev.Prepare(open).ConnectedRange(cuts[i], cuts[i+1])...)
		}
		if !reflect.DeepEqual(gotC, full) {
			t.Errorf("stitched ExplainedRange %v = %v, want %v", cuts, gotC, full)
		}
		if !reflect.DeepEqual(gotO, conn) {
			t.Errorf("stitched ConnectedRange %v = %v, want %v", cuts, gotO, conn)
		}
	}
}

// TestPreparedRangePanics pins the misuse panics: range methods reject the
// wrong path shape and out-of-bounds ranges.
func TestPreparedRangePanics(t *testing.T) {
	db := figure3DB()
	closed, open := preparedPaths(t)
	ev := query.NewEvaluator(db)

	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("ExplainedRange on open path", func() { ev.Prepare(open).ExplainedRange(0, 1) })
	expectPanic("ConnectedRange on closed path", func() { ev.Prepare(closed).ConnectedRange(0, 1) })
	expectPanic("negative lo", func() { ev.Prepare(closed).ExplainedRange(-1, 1) })
	expectPanic("hi past end", func() { ev.Prepare(closed).ExplainedRange(0, ev.Log().NumRows()+1) })
	expectPanic("hi < lo", func() { ev.Prepare(open).ConnectedRange(2, 1) })
}

// TestPlanCacheSharedAcrossCursors verifies the engine-level cache: the
// first Prepare of a condition set is a miss, and every later Prepare — on
// the same cursor or any clone — is a hit.
func TestPlanCacheSharedAcrossCursors(t *testing.T) {
	db := figure3DB()
	closed, open := preparedPaths(t)
	ev := query.NewEvaluator(db)

	if st := ev.PlanCacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("fresh engine cache stats = %d hits, %d misses", st.Hits, st.Misses)
	}
	ev.Prepare(closed)
	if st := ev.PlanCacheStats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("after first Prepare: %d hits, %d misses", st.Hits, st.Misses)
	}
	ev.Prepare(closed)
	clone := ev.Clone()
	clone.Prepare(closed)
	if st := ev.PlanCacheStats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("after reuse: %d hits, %d misses, want 2 hits, 1 miss", st.Hits, st.Misses)
	}
	clone.Prepare(open)
	if st := ev.PlanCacheStats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("after second path: %d hits, %d misses, want 2 hits, 2 misses", st.Hits, st.Misses)
	}
}

// TestPlanCacheCanonicalSharing verifies that a path and its reverse — same
// canonical condition set, opposite orientation — share one cache entry and
// still classify every row identically.
func TestPlanCacheCanonicalSharing(t *testing.T) {
	db := figure3DB()
	closed, _ := preparedPaths(t)
	rev := closed.Reverse()
	if rev.CanonicalKey() != closed.CanonicalKey() {
		t.Fatalf("reverse changed canonical key: %q vs %q", rev.CanonicalKey(), closed.CanonicalKey())
	}

	ev := query.NewEvaluator(db)
	want := ev.Prepare(closed).ExplainedRows()
	misses := ev.PlanCacheStats().Misses
	got := ev.Prepare(rev).ExplainedRows()
	if misses2 := ev.PlanCacheStats().Misses; misses2 != misses {
		t.Errorf("reverse path recompiled: misses %d -> %d", misses, misses2)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reverse path via shared plan = %v, want %v", got, want)
	}
	if s, w := ev.Prepare(rev).Support(), ev.SupportNaive(rev); s != w {
		t.Errorf("reverse Support = %d, want %d", s, w)
	}
}

// TestPlanCacheInvalidation verifies version-based invalidation: both
// AddTable and Append mutations force recompilation, and the recompiled
// plan sees the new data.
func TestPlanCacheInvalidation(t *testing.T) {
	db := figure3DB()
	closed, _ := preparedPaths(t)
	ev := query.NewEvaluator(db)

	before := ev.Prepare(closed).ExplainedRows()
	if before[3] {
		t.Fatal("row 3 (mike->carol) should be unexplained before mutation")
	}

	// Append phase: give Carol an appointment with Mike. The table contract
	// allows this only with exclusive access, which a sequential test has.
	db.MustTable("Appointments").Append(relation.Int(carol), relation.Date(2), relation.Int(mike+100))
	missesBefore := ev.PlanCacheStats().Misses
	after := ev.Prepare(closed).ExplainedRows()
	if misses := ev.PlanCacheStats().Misses; misses != missesBefore+1 {
		t.Errorf("Append did not invalidate plan cache: misses %d -> %d", missesBefore, misses)
	}
	if !after[3] {
		t.Error("row 3 still unexplained after appointment appended")
	}

	// AddTable phase: replacing the table must also invalidate.
	repl := db.MustTable("Appointments").Clone("Appointments")
	db.AddTable(repl)
	missesBefore = ev.PlanCacheStats().Misses
	ev.Prepare(closed)
	if misses := ev.PlanCacheStats().Misses; misses != missesBefore+1 {
		t.Errorf("AddTable did not invalidate plan cache: misses %d -> %d", missesBefore, misses)
	}

	// InvalidatePlans forces recompilation without any mutation.
	missesBefore = ev.PlanCacheStats().Misses
	ev.InvalidatePlans()
	ev.Prepare(closed)
	if misses := ev.PlanCacheStats().Misses; misses != missesBefore+1 {
		t.Errorf("InvalidatePlans did not drop the cache: misses %d -> %d", missesBefore, misses)
	}
}

// TestPreparedConcurrentShards runs many goroutines, each with its own
// cloned cursor, evaluating disjoint shards of the same prepared paths, and
// checks the assembled masks against the sequential result. Run under -race
// this exercises the plan cache's RWMutex, the per-entry compile sync.Once,
// and the shared dictionary and log projections.
func TestPreparedConcurrentShards(t *testing.T) {
	db := figure3DB()
	closed, open := preparedPaths(t)
	ev := query.NewEvaluator(db)
	n := ev.Log().NumRows()

	wantClosed := ev.Prepare(closed).ExplainedRows()
	wantOpen := ev.Prepare(open).ConnectedRows()
	ev.InvalidatePlans() // make the workers race on compilation too

	const workers = 8
	gotClosed := make([]bool, n)
	gotOpen := make([]bool, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := ev.Clone()
			lo, hi := w*n/workers, (w+1)*n/workers
			copy(gotClosed[lo:hi], cur.Prepare(closed).ExplainedRange(lo, hi))
			copy(gotOpen[lo:hi], cur.Prepare(open).ConnectedRange(lo, hi))
		}(w)
	}
	wg.Wait()

	if !reflect.DeepEqual(gotClosed, wantClosed) {
		t.Errorf("concurrent sharded ExplainedRange = %v, want %v", gotClosed, wantClosed)
	}
	if !reflect.DeepEqual(gotOpen, wantOpen) {
		t.Errorf("concurrent sharded ConnectedRange = %v, want %v", gotOpen, wantOpen)
	}
	if st := ev.PlanCacheStats(); st.Misses == 0 || st.Hits == 0 {
		t.Errorf("expected both hits and misses after concurrent prepare, got %d hits, %d misses", st.Hits, st.Misses)
	}
}

// TestDecoratedRangeStitching pins ExplainedRowsDecoratedRange to its
// full-range counterpart.
func TestDecoratedRangeStitching(t *testing.T) {
	db := figure3DB()
	ev := query.NewEvaluator(db)
	dp := pathmodel.NewDecoratedPath(apptTemplate(t), pathmodel.Decoration{
		Left:  pathmodel.Ref{Inst: 1, Col: "Date"},
		Op:    pathmodel.OpEQ,
		Right: pathmodel.Ref{Inst: 0, Col: "Date"},
	})
	full := ev.ExplainedRowsDecorated(dp)
	n := ev.Log().NumRows()
	for _, cuts := range [][]int{{0, n}, {0, 1, n}, {0, 2, 2, n}} {
		var got []bool
		for i := 0; i+1 < len(cuts); i++ {
			got = append(got, ev.ExplainedRowsDecoratedRange(dp, cuts[i], cuts[i+1])...)
		}
		if !reflect.DeepEqual(got, full) {
			t.Errorf("stitched decorated range %v = %v, want %v", cuts, got, full)
		}
	}
}

// TestPlanCacheStatsAdd pins the federation-facing aggregate: every field
// sums, and one engine's snapshot counts its compiled plans — each once,
// when its first evaluation lowers it, so preparing alone counts nothing.
func TestPlanCacheStatsAdd(t *testing.T) {
	a := query.PlanCacheStats{Hits: 3, Misses: 2, PlansPlanned: 2, PlanNanos: 70, MaskHits: 1}
	b := query.PlanCacheStats{Hits: 10, Misses: 1, PlansPlanned: 1, PlanNanos: 5, MaskExtensions: 4}
	want := query.PlanCacheStats{Hits: 13, Misses: 3, PlansPlanned: 3, PlanNanos: 75, MaskHits: 1, MaskExtensions: 4}
	if got := a.Add(b); got != want {
		t.Errorf("Add = %+v, want %+v", got, want)
	}

	ev := query.NewEvaluator(figure3DB())
	closed, open := preparedPaths(t)
	handles := []*query.Prepared{ev.Prepare(closed), ev.Prepare(open), ev.Prepare(closed)}
	if st := ev.PlanCacheStats(); st.PlansPlanned != 0 || st.PlanNanos != 0 {
		t.Errorf("stats before any evaluation = %+v, want no plan counted", st)
	}
	for _, pp := range handles {
		pp.Support()
	}
	if st := ev.PlanCacheStats(); st.PlansPlanned != 2 || st.Misses != 2 || st.Hits != 1 || st.PlanNanos <= 0 {
		t.Errorf("stats after 2 compiles and 1 reuse = %+v", st)
	}
}
