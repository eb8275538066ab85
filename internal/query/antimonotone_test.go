package query_test

import (
	"testing"

	"repro/internal/ehr"
	"repro/internal/groups"
	"repro/internal/pathmodel"
	"repro/internal/query"
)

// TestSupportAntiMonotone states the law mining's pruning relies on: a
// path's support never grows when the path is extended. On Tiny seeds 1-3,
// over the default schema graph with a trained Groups table, every path
// that starts at Log.Patient is extended through Path.Append by every edge
// leaving its last table, up to length 4, and each accepted extension —
// the closing edge to Log.User included — must have at most its prefix's
// support.
func TestSupportAntiMonotone(t *testing.T) {
	const maxLength = 4
	g := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	for _, seed := range []int64{1, 2, 3} {
		cfg := ehr.Tiny()
		cfg.Seed = seed
		ds := ehr.Generate(cfg)
		h := groups.BuildHierarchy(groups.BuildUserGraph(ds.Log()), 8)
		ds.DB.AddTable(h.Table("Groups"))
		ev := query.NewEvaluator(ds.DB)

		checked, closed := 0, 0
		var extend func(p pathmodel.Path, support int)
		extend = func(p pathmodel.Path, support int) {
			if p.Closed() || p.Length() >= maxLength {
				return
			}
			for _, e := range g.EdgesFromTable(p.LastAttr().Table) {
				next, ok := p.Append(e)
				if !ok {
					continue
				}
				s := ev.Prepare(next).Support()
				if s > support {
					t.Errorf("seed %d: support(%s) = %d exceeds its prefix's support(%s) = %d", seed, next, s, p, support)
				}
				checked++
				if next.Closed() {
					closed++
				}
				extend(next, s)
			}
		}
		for _, e := range g.EdgesFromAttr(pathmodel.StartAttr()) {
			if p, ok := pathmodel.StartAt(e, pathmodel.LogPatientColumn); ok {
				extend(p, ev.Prepare(p).Support())
			}
		}
		if checked == 0 || closed == 0 {
			t.Fatalf("seed %d: %d extensions checked, %d of them closing: the law was never exercised", seed, checked, closed)
		}
		t.Logf("seed %d: %d extensions checked, %d closing", seed, checked, closed)
	}
}
