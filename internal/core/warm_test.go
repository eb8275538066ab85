package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/obs"
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// TestWarmInstallLowersNothing pins lazy lowering at the warm start:
// installing a snapshot's masks lowers no plan, so until a plan is
// evaluated the dictionary is empty and no plan bytes are resident — and a
// patient report, served from the restored masks, evaluates none. The
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
	if len(ws.Masks) == 0 {
		t.Fatal("cold run captured no masks")
	}

	warm := core.NewAuditor(ds.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
	warm.AddTemplates(explain.Handcrafted(true, true).All()...)
	if masks := warm.InstallWarmState(ws); masks != len(ws.Masks) {
		t.Fatalf("InstallWarmState = %d masks, want %d", masks, len(ws.Masks))
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

// TestWarmPatientReportBuildsNoIndex pins that no audit path builds a hash
// index on any table (relation.index_builds): a cold StreamNDJSON, a cold
// Unexplained, AppendNDJSONRows after a log append and Refresh (the follow
// path), and a cold and a warm PatientReport. One direct Table.Index call
// first shows the counter counts. The warm auditor runs over a dataset of
// its own, whose tables no earlier report can have indexed.
func TestWarmPatientReportBuildsNoIndex(t *testing.T) {
	builds := obs.Default.Counter("relation.index_builds")
	probe := ehr.Generate(ehr.Tiny())
	n0 := builds.Value()
	probe.Log().Index(pathmodel.LogPatientColumn)
	if builds.Value() != n0+1 {
		t.Fatal("a Table.Index call built no index: relation.index_builds does not count builds")
	}
	noBuild := func(what string, f func()) {
		t.Helper()
		n1 := builds.Value()
		f()
		if n := builds.Value() - n1; n != 0 {
			t.Errorf("%s built %d indexes, want 0", what, n)
		}
	}

	ctx := context.Background()
	ds := ehr.Generate(ehr.Tiny())
	n := ds.Log().NumRows()
	db, full := truncatedDB(ds, n-64)
	newAuditor := func() *core.Auditor {
		a := core.NewAuditor(db, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
		a.BuildGroups(core.GroupsOptions{})
		a.AddTemplates(explain.Handcrafted(true, true).All()...)
		return a
	}
	stream := newAuditor()
	noBuild("a cold StreamNDJSON", func() {
		if err := stream.StreamNDJSON(ctx, 4, func([]byte, int, int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	noBuild("a cold Unexplained", func() { mustUnexplained(t, newAuditor(), 4) })
	log := db.MustTable(pathmodel.LogTable)
	for r := n - 64; r < n; r++ {
		log.Append(full.Row(r)...)
	}
	noBuild("the follow path (Refresh, AppendNDJSONRows)", func() {
		if err := stream.Refresh(ctx, 4); err != nil {
			t.Fatal(err)
		}
		if _, err := stream.AppendNDJSONRows(nil, n-64, n); err != nil {
			t.Fatal(err)
		}
	})

	pi, _ := log.ColumnIndex(pathmodel.LogPatientColumn)
	patient := log.Cell(0, pi)
	cold := newAuditor()
	var want string
	noBuild("a cold PatientReport", func() { want = fmt.Sprintf("%+v", mustPatientReport(t, cold, patient, 1)) })
	ws := cold.CaptureWarmState()

	fresh := ehr.Generate(ehr.Tiny())
	warm := core.NewAuditor(fresh.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(fresh))
	warm.BuildGroups(core.GroupsOptions{})
	warm.AddTemplates(explain.Handcrafted(true, true).All()...)
	if masks := warm.InstallWarmState(ws); masks != len(ws.Masks) {
		t.Fatalf("InstallWarmState restored %d of %d masks", masks, len(ws.Masks))
	}
	var got string
	noBuild("a warm PatientReport", func() { got = fmt.Sprintf("%+v", mustPatientReport(t, warm, patient, 1)) })
	if got != want {
		t.Errorf("warm report differs from cold:\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(got, "repeat-access") {
		t.Errorf("patient %v's report renders no repeat access: the check is vacuous", patient)
	}
}
