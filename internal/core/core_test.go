package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/mine"
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

func buildAuditor(t testing.TB) (*ehr.Dataset, *core.Auditor) {
	t.Helper()
	ds := ehr.Generate(ehr.Tiny())
	a := core.NewAuditor(ds.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
	a.BuildGroups(core.GroupsOptions{})
	a.AddTemplates(explain.Handcrafted(true, true).All()...)
	return ds, a
}

func TestAuditorAccessors(t *testing.T) {
	ds, a := buildAuditor(t)
	if a.Database() != ds.DB {
		t.Error("Database() wrong")
	}
	if a.Evaluator() == nil {
		t.Error("nil evaluator")
	}
	if got := len(a.Templates()); got != 20 {
		t.Errorf("Templates = %d, want 20", got)
	}
	if s := a.Summary(); !strings.Contains(s, "20 templates") {
		t.Errorf("Summary = %q", s)
	}
}

func TestBuildGroupsInstallsTable(t *testing.T) {
	ds := ehr.Generate(ehr.Tiny())
	a := core.NewAuditor(ds.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()))
	h := a.BuildGroups(core.GroupsOptions{MaxDepth: 4})
	if !ds.DB.HasTable("Groups") {
		t.Fatal("Groups table not installed")
	}
	if h.MaxDepth() > 4 {
		t.Errorf("MaxDepth = %d exceeds requested 4", h.MaxDepth())
	}
	wantRows := len(h.Users) * (h.MaxDepth() + 1)
	if got := ds.DB.MustTable("Groups").NumRows(); got != wantRows {
		t.Errorf("Groups rows = %d, want %d", got, wantRows)
	}
}

func TestExplainRowRanksByLength(t *testing.T) {
	ds, a := buildAuditor(t)
	_ = ds
	found := false
	for r := 0; r < 200; r++ {
		rep := mustExplainRow(t, a, r, 2)
		if len(rep.Explanations) < 2 {
			continue
		}
		found = true
		for i := 1; i < len(rep.Explanations); i++ {
			if rep.Explanations[i].Length < rep.Explanations[i-1].Length {
				t.Fatalf("explanations not ranked by length: %+v", rep.Explanations)
			}
		}
		break
	}
	if !found {
		t.Skip("no multi-explanation access in the first 200 rows")
	}
}

func TestExplainRowFields(t *testing.T) {
	ds, a := buildAuditor(t)
	rep := mustExplainRow(t, a, 0, 1)
	log := ds.Log()
	if rep.Lid != log.Get(0, pathmodel.LogIDColumn).AsInt() {
		t.Errorf("Lid = %d", rep.Lid)
	}
	if rep.User != log.Get(0, pathmodel.LogUserColumn) {
		t.Error("User mismatch")
	}
	if rep.Patient != log.Get(0, pathmodel.LogPatientColumn) {
		t.Error("Patient mismatch")
	}
	if rep.UserName == "" || strings.HasPrefix(rep.UserName, "user ") {
		t.Errorf("UserName = %q; namer not applied", rep.UserName)
	}
}

func TestPatientReportCoversAllAccesses(t *testing.T) {
	ds, a := buildAuditor(t)
	log := ds.Log()
	pi, _ := log.ColumnIndex(pathmodel.LogPatientColumn)

	// Count accesses per patient and pick one with a few.
	counts := map[relation.Value]int{}
	for r := 0; r < log.NumRows(); r++ {
		counts[log.Row(r)[pi]]++
	}
	for pv, n := range counts {
		if n < 3 {
			continue
		}
		reports := mustPatientReport(t, a, pv, 1)
		if len(reports) != n {
			t.Errorf("PatientReport(%v) = %d reports, want %d", pv, len(reports), n)
		}
		return
	}
	t.Fatal("no patient with >= 3 accesses")
}

func TestUnexplainedConsistentWithExplainedFraction(t *testing.T) {
	ds, a := buildAuditor(t)
	un := mustUnexplained(t, a, 1)
	frac := mustFraction(t, a, 1)
	total := ds.Log().NumRows()
	wantUnexplained := total - int(frac*float64(total)+0.5)
	if len(un) != wantUnexplained {
		t.Errorf("unexplained = %d, fraction implies %d", len(un), wantUnexplained)
	}
	// Every unexplained row really has no explanations.
	for _, r := range un[:minInt(10, len(un))] {
		if rep := mustExplainRow(t, a, r, 1); rep.Explained() {
			t.Errorf("row %d on unexplained list but has explanations", r)
		}
	}
}

func TestUnexplainedContainsGroundTruthResidue(t *testing.T) {
	ds, a := buildAuditor(t)
	un := mustUnexplained(t, a, 0)
	onList := map[int]bool{}
	for _, r := range un {
		onList[r] = true
	}
	// The explained fraction should be high and the residue dominated by
	// none/snoop/floater causes.
	if frac := mustFraction(t, a, 0); frac < 0.9 {
		t.Errorf("ExplainedFraction = %.3f", frac)
	}
	for _, r := range un {
		switch ds.Causes[r] {
		case ehr.CauseNone, ehr.CauseSnoop, ehr.CauseFloater, ehr.CauseRepeat:
			// CauseRepeat can be unexplained when the *original* access was
			// itself unexplainable (e.g. a floater re-visiting).
		case ehr.CauseTeam:
			// Rare: a team access whose group was split by clustering.
		default:
			t.Errorf("unexplained row %d has unexpected cause %v", r, ds.Causes[r])
		}
	}
}

func TestEmptyTemplateSet(t *testing.T) {
	ds := ehr.Generate(ehr.Tiny())
	a := core.NewAuditor(ds.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()))
	if got := mustFraction(t, a, 0); got != 0 {
		t.Errorf("ExplainedFraction with no templates = %v", got)
	}
	if got := len(mustUnexplained(t, a, 0)); got != ds.Log().NumRows() {
		t.Errorf("Unexplained = %d, want all %d", got, ds.Log().NumRows())
	}
}

func TestMineTemplatesThroughAuditor(t *testing.T) {
	_, a := buildAuditor(t)
	opt := mine.DefaultOptions()
	opt.MaxLength = 2
	res, err := a.MineTemplates(mine.AlgoOneWay, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Templates) == 0 {
		t.Fatal("no templates mined")
	}
	// Adopt a mined template and confirm it participates in explanation.
	before := len(a.Templates())
	a.AddTemplates(explain.NewPathTemplate("mined-0", res.Templates[0], ""))
	if len(a.Templates()) != before+1 {
		t.Error("AddTemplates did not register")
	}
	if _, err := a.MineTemplates("bogus", opt); err == nil {
		t.Error("MineTemplates(bogus) succeeded")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
