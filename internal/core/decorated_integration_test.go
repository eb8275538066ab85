package core_test

import (
	"strings"
	"testing"

	"repro/internal/accesslog"
	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
)

// datedRepeatAccess is repeat access whose text also names the earlier
// access's date (the description alias Log2), so its explanations render
// from the bindings of the decorated walk, while its mask is the engine's
// repeat-access state.
func datedRepeatAccess() *explain.PathTemplate {
	rt := explain.RepeatAccess()
	return explain.NewPathTemplate("repeat-access-dated", rt.Path,
		"[L.User|user] previously accessed [L.Patient|patient]'s record (on [Log2.Date]).", rt.Decorations...)
}

// TestAuditorWithDecoratedPathTemplates wires decorated path templates (the
// §5.3.4 depth-restricted group template and a dated repeat access)
// through the full Auditor flow: registration, per-row explanation, and
// unexplained triage must all work identically to undecorated ones.
func TestAuditorWithDecoratedPathTemplates(t *testing.T) {
	ds := ehr.Generate(ehr.Tiny())
	a := core.NewAuditor(ds.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
	a.BuildGroups(core.GroupsOptions{})

	a.AddTemplates(
		datedRepeatAccess(),
		explain.DepthRestrictedGroupTemplate("appt-group-d1", "Appointments", "an appointment", 1),
	)
	frac := mustFraction(t, a, 0)
	if frac <= 0 || frac >= 1 {
		t.Errorf("ExplainedFraction = %.3f, want in (0,1)", frac)
	}

	// Explanations render through the decorated machinery.
	found := false
	for r := 0; r < 100 && !found; r++ {
		rep := mustExplainRow(t, a, r, 2)
		for _, e := range rep.Explanations {
			if e.Template == "repeat-access-dated" || e.Template == "appt-group-d1" {
				if e.Text == "" || strings.Contains(e.Text, "?]") {
					t.Errorf("rendered text for %s: %q", e.Template, e.Text)
				}
				found = true
			}
		}
	}
	if !found {
		t.Error("no decorated explanation rendered in the first 100 rows")
	}
}

// TestGroupsOptionsTrainLog verifies that clustering honors a training
// window distinct from the audited log.
func TestGroupsOptionsTrainLog(t *testing.T) {
	ds := ehr.Generate(ehr.Tiny())
	a := core.NewAuditor(ds.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()))

	train := accesslog.FilterDays(ds.Log(), 0, 5)
	h := a.BuildGroups(core.GroupsOptions{TrainLog: train, MaxDepth: 3, TableName: "Groups"})
	if h.MaxDepth() > 3 {
		t.Errorf("MaxDepth = %d", h.MaxDepth())
	}
	// Users appearing only on day 7 are absent from the hierarchy.
	dayers := make(map[int64]bool)
	for r := 0; r < train.NumRows(); r++ {
		dayers[train.Get(r, "User").AsInt()] = true
	}
	for _, u := range h.Users {
		if !dayers[u.AsInt()] {
			t.Errorf("hierarchy contains user %v not in the training window", u)
		}
	}
}
