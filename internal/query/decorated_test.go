package query_test

import (
	"testing"

	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
)

// TestUndecoratedPathMatchesPlainEvaluation: wrapping a path with zero
// decorations must reproduce ExplainedBools exactly.
func TestUndecoratedPathMatchesPlainEvaluation(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())
	for name, p := range map[string]pathmodel.Path{
		"appt": apptTemplate(t), "dept": deptTemplate(t), "group": groupTemplate(t),
	} {
		plain := ev.ExplainedBools(p)
		dec := ev.ExplainedRowsDecorated(pathmodel.NewDecoratedPath(p))
		for i := range plain {
			if plain[i] != dec[i] {
				t.Errorf("%s row %d: plain=%v decorated=%v", name, i, plain[i], dec[i])
			}
		}
		if got, want := ev.SupportDecorated(pathmodel.NewDecoratedPath(p)), ev.Support(p); got != want {
			t.Errorf("%s: SupportDecorated = %d, Support = %d", name, got, want)
		}
	}
}

// TestDecorationOnBoundAttribute: restrict the appointment template to
// appointments on the same day as the access.
func TestDecorationOnBoundAttribute(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())
	sameDay := pathmodel.NewDecoratedPath(apptTemplate(t), pathmodel.Decoration{
		Left: pathmodel.Ref{Inst: 1, Col: "Date"}, Op: pathmodel.OpEQ,
		Right: pathmodel.Ref{Inst: 0, Col: pathmodel.LogDateColumn},
	})
	mask := ev.ExplainedRowsDecorated(sameDay)
	// L1: Dave->Alice on day 0, appointment day 0 -> explained.
	// L5: Dave->Alice on day 3, appointment day 0 -> excluded by decoration.
	want := []bool{true, false, false, false, false}
	for i := range want {
		if mask[i] != want[i] {
			t.Errorf("row %d: %v, want %v", i, mask[i], want[i])
		}
	}
}

// TestDecorationOnConstant: restrict by a literal comparison.
func TestDecorationOnConstant(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())
	day2 := relation.Date(2)
	early := pathmodel.NewDecoratedPath(apptTemplate(t), pathmodel.Decoration{
		Left: pathmodel.Ref{Inst: 0, Col: pathmodel.LogDateColumn}, Op: pathmodel.OpLT, Const: &day2,
	})
	mask := ev.ExplainedRowsDecorated(early)
	// Of the appointment-explained rows (L1 day 0, L5 day 3), only L1 is
	// before day 2.
	want := []bool{true, false, false, false, false}
	for i := range want {
		if mask[i] != want[i] {
			t.Errorf("row %d: %v, want %v", i, mask[i], want[i])
		}
	}
}

// TestDecoratedSubsetProperty: any decoration yields a subset of the base
// mask, for several operators.
func TestDecoratedSubsetProperty(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())
	base := apptTemplate(t)
	plain := ev.ExplainedBools(base)
	for _, op := range []pathmodel.CompareOp{pathmodel.OpLT, pathmodel.OpLE, pathmodel.OpEQ, pathmodel.OpGE, pathmodel.OpGT} {
		dp := pathmodel.NewDecoratedPath(base, pathmodel.Decoration{
			Left: pathmodel.Ref{Inst: 1, Col: "Date"}, Op: op,
			Right: pathmodel.Ref{Inst: 0, Col: pathmodel.LogDateColumn},
		})
		mask := ev.ExplainedRowsDecorated(dp)
		for i := range mask {
			if mask[i] && !plain[i] {
				t.Errorf("op %v row %d: decorated explains more than base", op, i)
			}
		}
	}
}

// TestInstancesDecorated: the bindings returned satisfy the decoration.
func TestInstancesDecorated(t *testing.T) {
	db := figure3DB()
	// Two Alice-Dave appointments, days 0 and 2; decoration keeps day 2.
	db.MustTable("Appointments").Append(relation.Int(alice), relation.Date(2), relation.Int(dave+100))
	ev := query.NewEvaluator(db)

	day1 := relation.Date(1)
	dp := pathmodel.NewDecoratedPath(apptTemplate(t), pathmodel.Decoration{
		Left: pathmodel.Ref{Inst: 1, Col: "Date"}, Op: pathmodel.OpGT, Const: &day1,
	})
	bindings := ev.InstancesDecorated(dp, 0, 10)
	if len(bindings) != 1 {
		t.Fatalf("bindings = %d, want 1", len(bindings))
	}
	row := db.MustTable("Appointments").Row(bindings[0].Rows[0])
	if row[1] != relation.Date(2) {
		t.Errorf("bound appointment date = %v, want day 2", row[1])
	}
	// Limit clamping.
	if got := ev.InstancesDecorated(pathmodel.NewDecoratedPath(apptTemplate(t)), 0, 0); len(got) != 1 {
		t.Errorf("limit 0 returned %d bindings", len(got))
	}
}

// TestDecoratedQueryCounter: decorated evaluation counts as a query.
func TestDecoratedQueryCounter(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())
	before := ev.QueriesEvaluated()
	ev.ExplainedRowsDecorated(pathmodel.NewDecoratedPath(apptTemplate(t)))
	if ev.QueriesEvaluated() != before+1 {
		t.Errorf("QueriesEvaluated did not increment")
	}
}
