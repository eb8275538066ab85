package query_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/query"
	"repro/internal/relation"
)

// TestPrepareLowersOnFirstEvaluation pins lazy lowering on one plan:
// Prepare reads no rows (nothing interned, no plan bytes, no plan counted),
// ExecTrace already describes the op chain, and the first evaluation lowers
// against the tables as they are then — so a bridge row appended between
// Prepare and that evaluation is seen, exactly as a cold evaluator over the
// grown table sees it. The plan is counted once, when it is lowered.
func TestPrepareLowersOnFirstEvaluation(t *testing.T) {
	db := figure3DB()
	closed, _ := preparedPaths(t)
	ev := query.NewEvaluator(db)
	ev.SetExecStats(true)
	reg := ev.Metrics()
	resident, values := reg.Gauge("query.plan.resident_bytes"), reg.Gauge("query.dict.values")

	pp := ev.Prepare(closed)
	if resident.Value() != 0 || values.Value() != 0 || ev.PlanCacheStats().PlansPlanned != 0 {
		t.Fatalf("Prepare lowered: resident %d B, %d values, %d plans counted",
			resident.Value(), values.Value(), ev.PlanCacheStats().PlansPlanned)
	}
	before := pp.ExecTrace()
	wantOps := []query.OpExec{{Kind: "map", Table: "Appointments"}, {Kind: "bridge", Table: "UserMapping"}, {Kind: "close"}}
	if !reflect.DeepEqual(before.Ops, wantOps) {
		t.Fatalf("ExecTrace before lowering = %+v, want %+v", before.Ops, wantOps)
	}

	// Nick (row 2 accesses Alice) now maps to Dave's caregiver id, so
	// Alice's appointment with Dave explains Nick's access too.
	db.MustTable("UserMapping").Append(relation.Int(nick), relation.Int(dave+100))
	got := pp.ExplainedRows()
	want := query.NewEvaluator(db).Prepare(closed).ExplainedRows()
	if !reflect.DeepEqual(got, want) || !got[2] {
		t.Errorf("first evaluation after a bridge append = %v, cold evaluator %v (row 2 must be explained)", got, want)
	}

	after := pp.ExecTrace()
	if len(after.Ops) != len(wantOps) || after.Ops[0].RowsIn == 0 {
		t.Errorf("ExecTrace after lowering = %+v, want counts over %d ops", after.Ops, len(wantOps))
	}
	for i := range after.Ops {
		if after.Ops[i].Kind != wantOps[i].Kind || after.Ops[i].Table != wantOps[i].Table {
			t.Errorf("op %d after lowering = %s %s, want %s %s", i, after.Ops[i].Kind, after.Ops[i].Table, wantOps[i].Kind, wantOps[i].Table)
		}
	}
	if resident.Value() == 0 || values.Value() == 0 {
		t.Errorf("after evaluation: resident %d B, %d values; want both > 0", resident.Value(), values.Value())
	}
	pp.Support()
	ev.Prepare(closed).ExplainedRows()
	if st := ev.PlanCacheStats(); st.PlansPlanned != 1 || st.PlanNanos <= 0 {
		t.Errorf("one plan evaluated three times: %d plans counted, %d ns", st.PlansPlanned, st.PlanNanos)
	}

	// A lowered plan whose bridge grows is stale: the next Prepare compiles
	// a new entry, which is counted again when it is lowered.
	db.MustTable("UserMapping").Append(relation.Int(mike), relation.Int(dave+100))
	ev.Prepare(closed).Support()
	if n := ev.PlanCacheStats().PlansPlanned; n != 2 {
		t.Errorf("after the stale plan was recompiled and evaluated: %d plans counted, want 2", n)
	}
}

// TestFirstEvaluationRace prepares every catalog plan on two cursors, then
// races the two on each plan's first evaluation while a third goroutine
// reads the plans' traces and re-prepares them: each plan is lowered once, both cursors get a
// lone evaluator's answer, and the race detector sees no unsynchronized
// access. Run it under -race.
func TestFirstEvaluationRace(t *testing.T) {
	ds := ehr.Generate(ehr.Tiny())
	h := groups.BuildHierarchy(groups.BuildUserGraph(ds.Log()), 8)
	ds.DB.AddTable(h.Table("Groups"))
	var paths []*explain.PathTemplate
	for _, tpl := range explain.Handcrafted(true, true).All() {
		if pt, ok := tpl.(*explain.PathTemplate); ok {
			paths = append(paths, pt)
		}
	}
	lone := query.NewEvaluator(ds.DB)
	want := make([][]bool, len(paths))
	for i, pt := range paths {
		want[i] = lone.Prepare(pt.Path).ExplainedRows()
	}

	ev := query.NewEvaluator(ds.DB)
	ev.SetExecStats(true)
	cursors := [2]*query.Evaluator{ev.Clone(), ev.Clone()}
	handles := [2][]*query.Prepared{}
	for c, cur := range cursors {
		for _, pt := range paths {
			handles[c] = append(handles[c], cur.Prepare(pt.Path))
		}
	}
	var wg sync.WaitGroup
	for c := range cursors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, pp := range handles[c] {
				if got := pp.ExplainedRows(); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("cursor %d, %s: mask differs from a lone evaluator's", c, paths[i].Name())
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		third := ev.Clone()
		for i, pp := range handles[0] {
			pp.ExecTrace()
			third.Prepare(paths[i].Path) // checks freshness while the plan may be lowering
		}
	}()
	wg.Wait()
	if got, n := ev.PlanCacheStats().PlansPlanned, len(ev.PlanCacheKeys()); got != int64(n) {
		t.Errorf("%d plans counted for %d cached plans; each must be lowered once", got, n)
	}
}
