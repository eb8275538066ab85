package query_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bitset"
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

// TestPreparedMatchesOneShot pins the prepared handle to the one-shot
// Support and to the indexed nested join: its Support and its unpacked
// ExplainedRange and ConnectedRows masks must agree exactly.
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
	if got, want := pc.ExplainedBools(), ev.ExplainedBools(closed); !reflect.DeepEqual(got, want) {
		t.Errorf("Prepared.ExplainedBools = %v, want %v", got, want)
	}
	if got, want := po.ConnectedBools(), ev.ConnectedBools(open); !reflect.DeepEqual(got, want) {
		t.Errorf("Prepared.ConnectedRows = %v, want %v", got, want)
	}
}

// patterned returns a mask of size bits whose bits outside [lo, hi) follow
// a random pattern and whose bits inside are clear: the destination for
// checking that a range method writes inside its range only.
func patterned(rng *rand.Rand, size, lo, hi int) *bitset.Bits {
	m := bitset.New(size)
	for i := range size {
		if (i < lo || i >= hi) && rng.Intn(2) == 0 {
			m.Set(i)
		}
	}
	return m
}

// checkInPlace checks the in-place law of the range methods: got holds
// want at [lo, lo+len(want)) and, everywhere else, the bits of before, the
// mask as it was before the writes.
func checkInPlace(t *testing.T, name string, got, before *bitset.Bits, lo int, want []bool) {
	t.Helper()
	for i := range got.Len() {
		exp := before.Get(i)
		if i >= lo && i < lo+len(want) {
			exp = want[i-lo]
		}
		if got.Get(i) != exp {
			t.Errorf("%s: bit %d = %v, want %v", name, i, got.Get(i), exp)
			return
		}
	}
}

// TestPreparedRangeStitching verifies the range contract: evaluating
// ExplainedRange / ConnectedRange over the pieces of a partition of [lo, hi)
// into one mask sets exactly the full-range result's bits of [lo, hi),
// including empty and single-row pieces, and leaves every other bit of the
// mask, which starts patterned and runs past the log, as it was.
func TestPreparedRangeStitching(t *testing.T) {
	db := figure3DB()
	closed, open := preparedPaths(t)
	ev := query.NewEvaluator(db)
	n := ev.Log().NumRows()
	rng := rand.New(rand.NewSource(1))

	partitions := [][]int{
		{0, n},
		{0, 0, n},
		{0, 1, n},
		{0, n - 1, n},
		{0, 1, 2, 3, 4, n},
		{0, 2, 2, 5},
		{1, 3, n},
		{2, 4},
	}
	full := ev.Prepare(closed).ExplainedBools()
	conn := ev.Prepare(open).ConnectedBools()
	for _, cuts := range partitions {
		lo, hi := cuts[0], cuts[len(cuts)-1]
		dstC := patterned(rng, n+67, lo, hi)
		dstO := patterned(rng, n+67, lo, hi)
		beforeC, beforeO := dstC.Clone(), dstO.Clone()
		for i := 0; i+1 < len(cuts); i++ {
			ev.Prepare(closed).ExplainedRange(cuts[i], cuts[i+1], dstC)
			ev.Prepare(open).ConnectedRange(cuts[i], cuts[i+1], dstO)
		}
		checkInPlace(t, fmt.Sprintf("stitched ExplainedRange %v", cuts), dstC, beforeC, lo, full[lo:hi])
		checkInPlace(t, fmt.Sprintf("stitched ConnectedRange %v", cuts), dstO, beforeO, lo, conn[lo:hi])
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
	n := ev.Log().NumRows()
	dst := bitset.New(n + 1)
	expectPanic("ExplainedRange on open path", func() { ev.Prepare(open).ExplainedRange(0, 1, dst) })
	expectPanic("ConnectedRange on closed path", func() { ev.Prepare(closed).ConnectedRange(0, 1, dst) })
	expectPanic("negative lo", func() { ev.Prepare(closed).ExplainedRange(-1, 1, dst) })
	expectPanic("hi past end", func() { ev.Prepare(closed).ExplainedRange(0, n+1, dst) })
	expectPanic("hi < lo", func() { ev.Prepare(open).ConnectedRange(2, 1, dst) })
	expectPanic("mask shorter than hi", func() { ev.Prepare(closed).ExplainedRange(0, n, bitset.New(n-1)) })
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
	want := ev.Prepare(closed).ExplainedBools()
	misses := ev.PlanCacheStats().Misses
	got := ev.Prepare(rev).ExplainedBools()
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

	before := ev.Prepare(closed).ExplainedBools()
	if before[3] {
		t.Fatal("row 3 (mike->carol) should be unexplained before mutation")
	}

	// Append phase: give Carol an appointment with Mike. The table contract
	// allows this only with exclusive access, which a sequential test has.
	db.MustTable("Appointments").Append(relation.Int(carol), relation.Date(2), relation.Int(mike+100))
	missesBefore := ev.PlanCacheStats().Misses
	after := ev.Prepare(closed).ExplainedBools()
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
// checks the assembled masks against the sequential result. The log has
// fewer than 64 rows, so the shards share one word of any mask: each
// worker writes its own mask, patterned outside its shard, and the in-place
// law is checked on it. Run under -race this exercises the plan cache's
// RWMutex, the per-entry compile sync.Once, and the shared dictionary and
// log projections.
func TestPreparedConcurrentShards(t *testing.T) {
	db := figure3DB()
	closed, open := preparedPaths(t)
	ev := query.NewEvaluator(db)
	n := ev.Log().NumRows()

	wantClosed := ev.Prepare(closed).ExplainedBools()
	wantOpen := ev.Prepare(open).ConnectedBools()
	ev.InvalidatePlans() // make the workers race on compilation too

	const workers = 8
	type shard struct{ dstC, beforeC, dstO, beforeO *bitset.Bits }
	shards := make([]shard, workers)
	for w := range shards {
		rng := rand.New(rand.NewSource(int64(w)))
		lo, hi := w*n/workers, (w+1)*n/workers
		s := &shards[w]
		s.dstC, s.dstO = patterned(rng, n, lo, hi), patterned(rng, n, lo, hi)
		s.beforeC, s.beforeO = s.dstC.Clone(), s.dstO.Clone()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := ev.Clone()
			lo, hi := w*n/workers, (w+1)*n/workers
			cur.Prepare(closed).ExplainedRange(lo, hi, shards[w].dstC)
			cur.Prepare(open).ConnectedRange(lo, hi, shards[w].dstO)
		}(w)
	}
	wg.Wait()

	for w, s := range shards {
		lo, hi := w*n/workers, (w+1)*n/workers
		checkInPlace(t, fmt.Sprintf("concurrent ExplainedRange shard [%d, %d)", lo, hi), s.dstC, s.beforeC, lo, wantClosed[lo:hi])
		checkInPlace(t, fmt.Sprintf("concurrent ConnectedRange shard [%d, %d)", lo, hi), s.dstO, s.beforeO, lo, wantOpen[lo:hi])
	}
	if st := ev.PlanCacheStats(); st.Misses == 0 || st.Hits == 0 {
		t.Errorf("expected both hits and misses after concurrent prepare, got %d hits, %d misses", st.Hits, st.Misses)
	}
}

// TestDecoratedRangeStitching pins ExplainedRowsDecoratedRange to its
// full-range counterpart under the in-place law of
// TestPreparedRangeStitching, and SupportDecoratedRange to the number of
// bits each piece sets.
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
	rng := rand.New(rand.NewSource(1))
	for _, cuts := range [][]int{{0, n}, {0, 1, n}, {0, 2, 2, n}, {1, 3, 4}} {
		lo, hi := cuts[0], cuts[len(cuts)-1]
		dst := patterned(rng, n+67, lo, hi)
		before := dst.Clone()
		for i := 0; i+1 < len(cuts); i++ {
			ev.ExplainedRowsDecoratedRange(dp, cuts[i], cuts[i+1], dst)
			if got, want := ev.SupportDecoratedRange(dp, cuts[i], cuts[i+1]), popcount(full[cuts[i]:cuts[i+1]]); got != want {
				t.Errorf("SupportDecoratedRange(%d, %d) = %d, want %d", cuts[i], cuts[i+1], got, want)
			}
		}
		checkInPlace(t, fmt.Sprintf("stitched decorated range %v", cuts), dst, before, lo, full[lo:hi])
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
