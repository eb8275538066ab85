package explain_test

import (
	"sort"
	"testing"

	"repro/internal/explain"
	"repro/internal/pathmodel"
	"repro/internal/schemagraph"
)

// TestTemplateTables pins the introspection the auditor's targeted mask
// invalidation relies on: path templates report their event and bridge
// tables, and repeat access (a Log self-join) reports the Log.
func TestTemplateTables(t *testing.T) {
	cat := explain.Handcrafted(true, true)

	refs := func(tpl explain.Template) []string {
		t.Helper()
		out := explain.TemplateTables(tpl)
		sort.Strings(out)
		return out
	}

	got := refs(cat.SetAWithDr[0]) // appt-with-dr: Appointments via UserMapping
	if want := []string{"Appointments", "UserMapping"}; !equalStrings(got, want) {
		t.Errorf("appt-with-dr tables = %v, want %v", got, want)
	}
	got = refs(cat.RepeatAccess)
	if want := []string{pathmodel.LogTable}; !equalStrings(got, want) {
		t.Errorf("repeat-access tables = %v, want %v", got, want)
	}
	got = refs(cat.GroupLen4A[0])
	foundGroups := false
	for _, n := range got {
		if n == "Groups" {
			foundGroups = true
		}
	}
	if !foundGroups {
		t.Errorf("group template tables = %v, want to include Groups", got)
	}
}

// TestAppendMonotone pins the extend-vs-rebuild classification: the whole
// hand-crafted catalog is append-monotone (event-table paths, and repeat
// access, whose Log self-join is pinned before the audited row in log
// order, in either spelling), while an unguarded Log self-join path — where
// a future access can retroactively explain a past one — and one guarded
// by Lid alone (Lids need not be chronological) are not.
func TestAppendMonotone(t *testing.T) {
	for _, tpl := range explain.Handcrafted(true, true).All() {
		if !explain.AppendMonotone(tpl) {
			t.Errorf("catalog template %s not append-monotone", tpl.Name())
		}
	}

	// The same self-join base without the temporal decoration is the
	// counterexample: both as a bare path template and as a decorated
	// template with an unrelated decoration.
	start := pathmodel.StartAttr()
	end := pathmodel.EndAttr()
	base, ok := pathmodel.Start(schemagraph.Edge{From: start, To: start, Kind: schemagraph.SelfJoin})
	if !ok {
		t.Fatal("building self-join path")
	}
	base, ok = base.Append(schemagraph.Edge{From: end, To: end, Kind: schemagraph.SelfJoin})
	if !ok {
		t.Fatal("closing self-join path")
	}
	if explain.AppendMonotone(explain.NewPathTemplate("any-access", base, "")) {
		t.Error("unguarded Log self-join path should not be append-monotone")
	}
	undated := explain.NewPathTemplate("same-day", base, "", pathmodel.Decoration{
		Left:  pathmodel.Ref{Inst: 1, Col: pathmodel.LogDateColumn},
		Op:    pathmodel.OpLE,
		Right: pathmodel.Ref{Inst: 0, Col: pathmodel.LogDateColumn},
	})
	if explain.AppendMonotone(undated) {
		t.Error("Log self-join without a strict log-order guard should not be append-monotone")
	}
	lidOnly := explain.NewPathTemplate("lid-order", base, "", pathmodel.Decoration{
		Left:  pathmodel.Ref{Inst: 1, Col: pathmodel.LogIDColumn},
		Op:    pathmodel.OpLT,
		Right: pathmodel.Ref{Inst: 0, Col: pathmodel.LogIDColumn},
	})
	if explain.AppendMonotone(lidOnly) {
		t.Error("Log self-join guarded by Lid alone should not be append-monotone")
	}
	mirrored := explain.NewPathTemplate("mirrored", base, "", pathmodel.Decoration{
		Left:  pathmodel.Ref{Inst: 0, Col: pathmodel.LogOrder},
		Op:    pathmodel.OpGT,
		Right: pathmodel.Ref{Inst: 1, Col: pathmodel.LogOrder},
	})
	if !explain.AppendMonotone(mirrored) {
		t.Error("Log self-join guarded by L.LogOrder > Log2.LogOrder should be append-monotone")
	}
}

// TestNewPathTemplateRejectsMissingInstance pins construction-time
// validation: a decoration that names an instance the path does not have
// panics when the template is built, not when it is first evaluated.
func TestNewPathTemplateRejectsMissingInstance(t *testing.T) {
	p := explain.RepeatAccess().Path // instances L and Log2
	defer func() {
		if recover() == nil {
			t.Error("a decoration on instance 2 of a two-instance path built a template")
		}
	}()
	explain.NewPathTemplate("missing-instance", p, "", pathmodel.Decoration{
		Left:  pathmodel.Ref{Inst: 2, Col: pathmodel.LogOrder},
		Op:    pathmodel.OpLT,
		Right: pathmodel.Ref{Inst: 0, Col: pathmodel.LogOrder},
	})
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
