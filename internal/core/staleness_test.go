package core_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// TestRenderAfterMutationMatchesRebuild pins the one risk the instance walk
// adds: the auditor's long-lived cursor keeps walks that point at lowered
// forms of the tables (row CSRs, bridge pair lists, interned columns), so a
// mutation must never be answered from forms lowered before it. A live auditor renders every row, then the
// database changes under it three ways — an event row is appended so a
// branch that led nowhere becomes a witness, the Groups table is replaced
// so whole dead sub-trees come alive, the audited log itself grows under a
// template that self-joins it, and a row arrives whose user and patient the
// compiled plans have never seen — and after each change ExplainRow,
// PatientReport and StreamReports (4 workers, twice) must equal an auditor
// built from scratch over the changed database.
func TestRenderAfterMutationMatchesRebuild(t *testing.T) {
	ctx := context.Background()
	ds := ehr.Generate(ehr.Tiny())
	n := ds.DB.MustTable(pathmodel.LogTable).NumRows()
	cut := n * 9 / 10
	db, full := truncatedDB(ds, cut)
	graph := ehr.SchemaGraph(ehr.DefaultGraphOptions())

	a := core.NewAuditor(db, graph, core.WithNamer(ds))
	a.BuildGroups(core.GroupsOptions{})
	a.AddTemplates(explain.Handcrafted(true, true).All()...)
	a.AddTemplates(datedRepeatAccess()) // its base path self-joins Log
	log := db.MustTable(pathmodel.LogTable)

	explanations := func() int {
		total := 0
		for r := 0; r < log.NumRows(); r++ {
			total += len(mustExplainRow(t, a, r, 0).Explanations)
		}
		return total
	}
	check := func(step string) {
		t.Helper()
		if err := a.Refresh(ctx, 4); err != nil {
			t.Fatalf("%s: Refresh: %v", step, err)
		}
		fresh := core.NewAuditor(db, graph, core.WithNamer(ds))
		fresh.AddTemplates(a.Templates()...)
		want := mustReports(t, fresh, 1)
		if len(want) != log.NumRows() {
			t.Fatalf("%s: rebuilt audit covers %d rows, want %d", step, len(want), log.NumRows())
		}
		for r := range want {
			if got := mustExplainRow(t, a, r, 0); !reflect.DeepEqual(got, want[r]) {
				t.Fatalf("%s: ExplainRow(%d) differs from rebuild:\n got %+v\nwant %+v", step, r, got, want[r])
			}
		}
		for _, p := range distinctValues(log, pathmodel.LogPatientColumn) {
			if got, want := mustPatientReport(t, a, p, 2), mustPatientReport(t, fresh, p, 2); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: PatientReport(%v) differs from rebuild", step, p)
			}
		}
		for pass := 1; pass <= 2; pass++ {
			if got := mustReports(t, a, 4); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: StreamReports pass %d differs from rebuild", step, pass)
			}
		}
	}

	check("initial")
	before := explanations()

	// An unexplained access gains a lab order by its own user.
	unexplained := mustUnexplained(t, a, 1)
	if len(unexplained) == 0 {
		t.Fatal("fixture has no unexplained access to turn into a witness")
	}
	row := log.Row(unexplained[0])
	ui, _ := log.ColumnIndex(pathmodel.LogUserColumn)
	pi, _ := log.ColumnIndex(pathmodel.LogPatientColumn)
	db.MustTable(ehr.TableLabs).Append(row[pi], relation.Date(0), row[ui], row[ui])
	a.ResetMaskCache() // event-table growth is not watermarked by the masks
	check("event row appended")
	if got := len(mustExplainRow(t, a, unexplained[0], 0).Explanations); got == 0 {
		t.Error("the appended lab order explains nothing")
	}

	// Every user joins one new collaborative group.
	old := db.MustTable(core.DefaultGroupsTable)
	grown := old.Clone(core.DefaultGroupsTable)
	for _, u := range distinctValues(log, pathmodel.LogUserColumn) {
		grown.Append(relation.Int(1), relation.Int(1<<40), u)
	}
	a.AddTable(grown)
	check("groups replaced")
	afterGroups := explanations()
	if afterGroups <= before {
		t.Errorf("the all-users group added no explanations (%d before, %d after)", before, afterGroups)
	}

	// The audited log grows by the held-out suffix.
	for r := cut; r < n; r++ {
		log.Append(full.Row(r)...)
	}
	check("log grown")

	// An access by a user, to a patient, that no event table mentions: the
	// engine's dictionary meets both values only now, after every plan was
	// compiled, so their IDs lie beyond everything the compiled plans index.
	// They must read as "no postings", not as an out-of-range lookup.
	stranger := append([]relation.Value(nil), log.Row(0)...)
	li, _ := log.ColumnIndex(pathmodel.LogIDColumn)
	stranger[li], stranger[ui], stranger[pi] = relation.Int(1<<41), relation.Int(1<<42), relation.Int(1<<43)
	log.Append(stranger...)
	check("stranger appended")
	if got := mustExplainRow(t, a, log.NumRows()-1, 0); got.Explained() {
		t.Errorf("the stranger's access is explained: %+v", got)
	}
}
