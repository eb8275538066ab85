package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/obs"
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// TestWarmInstallLowersNothing pins lazy lowering at the warm start: a
// snapshot's plan keys register plans without lowering any, so until a plan
// is evaluated the dictionary is empty and no plan bytes are resident — and
// a patient report, served from the restored masks, evaluates none. The
// reports' instance walks intern the columns their hops join on, so the
// dictionary is no longer empty after them; that they leave the audited log
// uninterned is pinned in query (TestPointRenderLeavesLogUninterned). The
// warm reports are byte-identical to the cold ones.
func TestWarmInstallLowersNothing(t *testing.T) {
	ds, cold := buildAuditor(t)
	log := ds.Log()
	pi, _ := log.ColumnIndex(pathmodel.LogPatientColumn)
	var patients []relation.Value
	seen := map[relation.Value]bool{}
	for r := 0; r < log.NumRows() && len(patients) < 8; r++ {
		if p := log.Row(r)[pi]; !seen[p] {
			seen[p] = true
			patients = append(patients, p)
		}
	}
	render := func(a *core.Auditor) []string {
		out := make([]string, len(patients))
		for i, p := range patients {
			out[i] = fmt.Sprintf("%+v", mustPatientReport(t, a, p, 1))
		}
		return out
	}
	want := render(cold)
	ws := cold.CaptureWarmState()
	if len(ws.PlanKeys) == 0 || len(ws.Masks) == 0 {
		t.Fatalf("cold run captured %d plan keys and %d masks", len(ws.PlanKeys), len(ws.Masks))
	}

	warm := core.NewAuditor(ds.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
	warm.AddTemplates(explain.Handcrafted(true, true).All()...)
	masks, plans := warm.InstallWarmState(ws)
	if masks != len(ws.Masks) || plans == 0 {
		t.Fatalf("InstallWarmState = %d masks, %d plans; want %d masks and some plans", masks, plans, len(ws.Masks))
	}
	reg := warm.Evaluator().Metrics()
	lowered := func(when string, rendered bool) {
		t.Helper()
		if b, v := reg.Gauge("query.plan.resident_bytes").Value(), reg.Gauge("query.dict.values").Value(); b != 0 || (v != 0 && !rendered) {
			t.Errorf("%s: query.plan.resident_bytes = %d, query.dict.values = %d; want 0 and 0", when, b, v)
		}
		if n := warm.PlanCacheStats().PlansPlanned; n != 0 {
			t.Errorf("%s: %d plans lowered, want 0", when, n)
		}
	}
	lowered("after InstallWarmState", false)
	got := render(warm)
	lowered("after the warm patient reports", true)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("patient %v: warm report differs from cold:\n got %s\nwant %s", patients[i], got[i], want[i])
		}
	}
}

// TestWarmPatientReportBuildsNoIndex pins the point report's cost: a warm
// PatientReport finds the patient's rows by scanning the Patient column and
// hands them to the repeat-access render, so it builds no hash index on
// any table (relation.index_builds), where the cold mask build does. The
// warm auditor runs over a dataset of its own, whose tables no earlier
// report can have indexed.
func TestWarmPatientReportBuildsNoIndex(t *testing.T) {
	builds := obs.Default.Counter("relation.index_builds")
	n0 := builds.Value()
	ds, cold := buildAuditor(t)
	pi, _ := ds.Log().ColumnIndex(pathmodel.LogPatientColumn)
	patient := ds.Log().Cell(0, pi)
	want := fmt.Sprintf("%+v", mustPatientReport(t, cold, patient, 1))
	if builds.Value() == n0 {
		t.Fatal("the cold report built no index: relation.index_builds does not count builds")
	}
	ws := cold.CaptureWarmState()

	fresh := ehr.Generate(ehr.Tiny())
	warm := core.NewAuditor(fresh.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(fresh))
	warm.BuildGroups(core.GroupsOptions{})
	warm.AddTemplates(explain.Handcrafted(true, true).All()...)
	if masks, _ := warm.InstallWarmState(ws); masks != len(ws.Masks) {
		t.Fatalf("InstallWarmState restored %d of %d masks", masks, len(ws.Masks))
	}
	n1 := builds.Value()
	got := fmt.Sprintf("%+v", mustPatientReport(t, warm, patient, 1))
	if n := builds.Value() - n1; n != 0 {
		t.Errorf("a warm PatientReport built %d indexes, want 0", n)
	}
	if got != want {
		t.Errorf("warm report differs from cold:\n got %s\nwant %s", got, want)
	}
}
