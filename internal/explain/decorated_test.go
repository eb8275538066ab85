package explain_test

import (
	"strings"
	"testing"

	"repro/internal/accesslog"
	"repro/internal/bitset"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// TestDecoratedExplainsSubsetOfBase checks Definition 3's guarantee: a
// decorated template explains a subset of its base simple template.
func TestDecoratedExplainsSubsetOfBase(t *testing.T) {
	_, ev := tinyEvaluator(t)
	dec := explain.DepthRestrictedGroupTemplate("appt-group-d1", "Appointments", "an appointment", 1)
	base := explain.GroupTemplate("appt-group", "Appointments", "an appointment")

	dm := dec.Evaluate(ev)
	bm := base.Evaluate(ev)
	for i := range dm {
		if dm[i] && !bm[i] {
			t.Fatalf("row %d explained by decoration but not by base", i)
		}
	}
	if fraction(bitset.FromBools(dm)) > fraction(bitset.FromBools(bm)) {
		t.Error("decorated recall exceeds base recall")
	}
}

// TestDepthRestrictionMatchesTableFiltering verifies that the decorated
// depth restriction and physically filtering the Groups table to one depth
// produce identical explanation masks — two routes to Figure 12.
func TestDepthRestrictionMatchesTableFiltering(t *testing.T) {
	ds := ehr.Generate(ehr.Tiny())
	g := groups.BuildUserGraph(ds.Log())
	h := groups.BuildHierarchy(g, 8)

	for depth := 0; depth <= h.MaxDepth(); depth++ {
		// Route 1: full hierarchy table + decorated depth restriction.
		fullDB := accesslog.WithLog(ds.DB, ds.Log())
		fullDB.AddTable(h.Table(ehr.TableGroups))
		evFull := query.NewEvaluator(fullDB)
		dec := explain.DepthRestrictedGroupTemplate("t", "Appointments", "an appointment", depth)
		maskDec := dec.Evaluate(evFull)

		// Route 2: per-depth table + plain group template.
		depthDB := accesslog.WithLog(ds.DB, ds.Log())
		depthDB.AddTable(h.TableAtDepth(ehr.TableGroups, depth))
		evDepth := query.NewEvaluator(depthDB)
		plain := explain.GroupTemplate("t", "Appointments", "an appointment")
		maskTbl := plain.Evaluate(evDepth)

		for i := range maskDec {
			if maskDec[i] != maskTbl[i] {
				t.Fatalf("depth %d row %d: decorated=%v filtered-table=%v",
					depth, i, maskDec[i], maskTbl[i])
			}
		}
	}
}

// TestDepthRestrictionControlsPrecision reproduces the §5.3.4 motivation in
// miniature: deeper restrictions explain fewer accesses.
func TestDepthRestrictionControlsPrecision(t *testing.T) {
	_, ev := tinyEvaluator(t)
	prev := -1.0
	for depth := 0; depth <= 2; depth++ {
		dec := explain.DepthRestrictedGroupTemplate("t", "Appointments", "an appointment", depth)
		frac := fraction(templateMask(ev, dec))
		if prev >= 0 && frac > prev+1e-12 {
			t.Errorf("depth %d recall %.3f exceeds shallower depth's %.3f", depth, frac, prev)
		}
		prev = frac
	}
}

func TestDecoratedPathTemplateSQLAndRender(t *testing.T) {
	ds, ev := tinyEvaluator(t)
	dec := explain.DepthRestrictedGroupTemplate("appt-group-d1", "Appointments", "an appointment", 1)

	sql := dec.SQL()
	for _, want := range []string{"Groups1.GroupDepth = 1", "Groups2.GroupDepth = 1", "COUNT(DISTINCT L.Lid)"} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
	if dec.Length() != 4 {
		t.Errorf("Length = %d", dec.Length())
	}

	mask := dec.Evaluate(ev)
	for r, ok := range mask {
		if !ok {
			continue
		}
		texts := dec.Render(ev, r, 2, ds)
		if len(texts) == 0 {
			t.Fatalf("row %d explained but not rendered", r)
		}
		if !strings.Contains(texts[0], "depth-1 collaborative group") {
			t.Errorf("rendered text = %q", texts[0])
		}
		return
	}
	t.Skip("depth-1 template explains nothing in this tiny instance")
}

func TestDecorationOperators(t *testing.T) {
	// Hand-built two-row log over one pair: row 0 (Lid 2, day 0) comes
	// before row 1 (Lid 1, day 1) in log order while its Lid is larger,
	// so a strict inequality on Lid and one on LogOrder each tell first
	// from repeat, in opposite directions.
	log := accesslog.NewLogTable("Log")
	log.Append(relation.Int(2), relation.Date(0), relation.Int(10), relation.Int(1))
	log.Append(relation.Int(1), relation.Date(1), relation.Int(10), relation.Int(1))
	db := relation.NewDatabase()
	db.AddTable(log)
	ev := query.NewEvaluator(db)

	selfEdge := func(a schemagraph.Attr) schemagraph.Edge {
		return schemagraph.Edge{From: a, To: a, Kind: schemagraph.SelfJoin}
	}
	base, ok := pathmodel.Start(selfEdge(pathmodel.StartAttr()))
	if !ok {
		t.Fatal("start failed")
	}
	base, ok = base.Append(selfEdge(pathmodel.EndAttr()))
	if !ok {
		t.Fatal("append failed")
	}

	cases := []struct {
		op         pathmodel.CompareOp
		lid, order []bool // which of the two audited rows have a witness Log2 row
	}{
		{pathmodel.OpLT, []bool{true, false}, []bool{false, true}}, // Log2 < L
		{pathmodel.OpLE, []bool{true, true}, []bool{true, true}},
		{pathmodel.OpEQ, []bool{true, true}, []bool{true, true}}, // self-match allowed
		{pathmodel.OpGE, []bool{true, true}, []bool{true, true}},
		{pathmodel.OpGT, []bool{false, true}, []bool{true, false}},
	}
	for _, c := range cases {
		for _, col := range []string{pathmodel.LogIDColumn, pathmodel.LogOrder} {
			want := c.lid
			if col == pathmodel.LogOrder {
				want = c.order
			}
			d := pathmodel.Decoration{Left: pathmodel.Ref{Inst: 1, Col: col}, Op: c.op, Right: pathmodel.Ref{Inst: 0, Col: col}}
			got := explain.NewPathTemplate("order", base, "", d).Evaluate(ev)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("Log2.%s %v L.%s row %d: got %v, want %v", col, c.op, col, i, got[i], want[i])
				}
			}
		}
	}
}
