package query_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/mine"
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
	got := pp.ExplainedBools()
	want := query.NewEvaluator(db).Prepare(closed).ExplainedBools()
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
	ev.Prepare(closed).ExplainedBools()
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
		if pt, ok := tpl.(*explain.PathTemplate); ok && len(pt.Decorations) == 0 {
			paths = append(paths, pt)
		}
	}
	lone := query.NewEvaluator(ds.DB)
	want := make([][]bool, len(paths))
	for i, pt := range paths {
		want[i] = lone.Prepare(pt.Path).ExplainedBools()
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
				if got := pp.ExplainedBools(); !reflect.DeepEqual(got, want[i]) {
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
	// Every miss cached one plan: nothing in this test invalidates the cache.
	if st := ev.PlanCacheStats(); st.PlansPlanned != st.Misses {
		t.Errorf("%d plans counted for %d cached plans; each must be lowered once", st.PlansPlanned, st.Misses)
	}
}

// TestLoweringMatchesValueProjections pins the counting-sort lowering to the
// relation layer's Value-keyed projections. After the catalog's plans and a
// bridge-2 mining run to length 5 have lowered their projections, every
// pairs CSR decodes to the table's DISTINCT projection (DistinctPairs),
// with each posting list in the same Value order; every exists set to the keys of Table.Index; and every
// interned column to the table's rows, with Table.NumDistinct distinct
// values.
func TestLoweringMatchesValueProjections(t *testing.T) {
	ds := ehr.Generate(ehr.Tiny())
	h := groups.BuildHierarchy(groups.BuildUserGraph(ds.Log()), 8)
	ds.DB.AddTable(h.Table("Groups"))
	ev := query.NewEvaluator(ds.DB)
	for _, tpl := range explain.Handcrafted(true, true).All() {
		if pt, ok := tpl.(*explain.PathTemplate); ok && len(pt.Decorations) == 0 {
			ev.Prepare(pt.Path).Support()
		}
	}
	opt := mine.DefaultOptions()
	opt.MaxLength = 5
	opt.Parallelism = 2
	if _, err := mine.Run(mine.AlgoBridge(2), ev, ehr.SchemaGraph(ehr.DefaultGraphOptions()), opt); err != nil {
		t.Fatal(err)
	}

	pairs, sets, onLog := 0, 0, false
	for _, lp := range ev.LoweredProjections() {
		name := lp.Table.Name() + "." + lp.A + ">" + lp.B
		if lp.Table == ev.Log() {
			onLog = true
		}
		if lp.B == "" {
			sets++
			want := make(map[relation.Value]bool)
			for v := range lp.Table.Index(lp.A) {
				want[v] = true
			}
			if !reflect.DeepEqual(lp.Set, want) {
				t.Errorf("%s: exists set has %d values, Index has %d", name, len(lp.Set), len(want))
			}
			continue
		}
		pairs++
		if want := query.DistinctPairs(lp.Table, lp.A, lp.B); !reflect.DeepEqual(lp.Pairs, want) {
			t.Errorf("%s: CSR differs from DistinctPairs (%d vs %d keys)", name, len(lp.Pairs), len(want))
		}
	}
	if pairs < 10 || sets == 0 || !onLog {
		t.Fatalf("lowered %d pairs projections and %d sets (audited log among them: %v); the comparison is too thin", pairs, sets, onLog)
	}

	cols := ev.InternedColumns()
	for _, c := range cols {
		ci, _ := c.Table.ColumnIndex(c.Column)
		want := make([]relation.Value, c.Table.NumRows())
		for r := range want {
			want[r] = c.Table.Row(r)[ci]
		}
		if !reflect.DeepEqual(c.Values, want) {
			t.Errorf("%s.%s: interned column differs from the table's rows", c.Table.Name(), c.Column)
		}
		if n := c.Table.NumDistinct(c.Column); c.NDV != n {
			t.Errorf("%s.%s: %d distinct IDs, NumDistinct %d", c.Table.Name(), c.Column, c.NDV, n)
		}
	}
	if len(cols) == 0 {
		t.Error("no interned columns")
	}
}
