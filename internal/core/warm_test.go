package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
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
