package ehr_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/accesslog"
	"repro/internal/ehr"
	"repro/internal/pathmodel"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

func tinyDS(t *testing.T) *ehr.Dataset {
	t.Helper()
	return ehr.Generate(ehr.Tiny())
}

func TestGenerateDeterministic(t *testing.T) {
	a := ehr.Generate(ehr.Tiny())
	b := ehr.Generate(ehr.Tiny())
	if a.Log().NumRows() != b.Log().NumRows() {
		t.Fatalf("log sizes differ: %d vs %d", a.Log().NumRows(), b.Log().NumRows())
	}
	for r := 0; r < a.Log().NumRows(); r++ {
		for _, col := range accesslog.Columns {
			if a.Log().Get(r, col) != b.Log().Get(r, col) {
				t.Fatalf("row %d column %s differs", r, col)
			}
		}
		if a.Causes[r] != b.Causes[r] {
			t.Fatalf("cause %d differs", r)
		}
	}

	cfg := ehr.Tiny()
	cfg.Seed = 99
	c := ehr.Generate(cfg)
	if c.Log().NumRows() == a.Log().NumRows() {
		// Same size is possible; compare content.
		same := true
		for r := 0; r < a.Log().NumRows() && same; r++ {
			if a.Log().Get(r, "User") != c.Log().Get(r, "User") {
				same = false
			}
		}
		if same {
			t.Error("different seeds produced identical logs")
		}
	}
}

func TestLidsAreSequentialAndDatesOrdered(t *testing.T) {
	ds := tinyDS(t)
	log := ds.Log()
	prevDay := int64(0)
	for r := 0; r < log.NumRows(); r++ {
		if got := log.Get(r, "Lid").AsInt(); got != int64(r+1) {
			t.Fatalf("row %d lid = %d", r, got)
		}
		day := log.Get(r, "Date").AsInt()
		if day < prevDay {
			t.Fatalf("row %d date regresses: %d < %d", r, day, prevDay)
		}
		prevDay = day
		if day < 0 || day >= int64(ds.Config.Days) {
			t.Fatalf("row %d day %d out of range", r, day)
		}
	}
}

func TestCausesAlignedWithLog(t *testing.T) {
	ds := tinyDS(t)
	if len(ds.Causes) != ds.Log().NumRows() {
		t.Fatalf("causes = %d, log rows = %d", len(ds.Causes), ds.Log().NumRows())
	}
	counts := map[ehr.Cause]int{}
	for _, c := range ds.Causes {
		counts[c]++
	}
	for _, want := range []ehr.Cause{ehr.CauseTreatingDoctor, ehr.CauseTeam, ehr.CauseFulfiller, ehr.CauseRepeat, ehr.CauseSnoop, ehr.CauseNone, ehr.CauseFloater} {
		if counts[want] == 0 {
			t.Errorf("no accesses with cause %v", want)
		}
	}
	// Repeats must be a plurality (the paper: majority of all accesses).
	if counts[ehr.CauseRepeat]*3 < ds.Log().NumRows() {
		t.Errorf("repeat causes = %d of %d, want >= 1/3", counts[ehr.CauseRepeat], ds.Log().NumRows())
	}
}

// TestReferentialIntegrity checks that every foreign key in every table
// resolves: log users exist in DeptCodes and UserMapping, event patients
// exist in the patient population, caregiver ids map back to audit ids.
func TestReferentialIntegrity(t *testing.T) {
	ds := tinyDS(t)
	db := ds.DB

	auditIDs := map[int64]bool{}
	caregiverIDs := map[int64]bool{}
	for _, u := range ds.Users {
		auditIDs[u.AuditID] = true
		caregiverIDs[u.CaregiverID] = true
	}
	patientIDs := map[int64]bool{}
	for _, p := range ds.Patients {
		patientIDs[p.ID] = true
	}

	check := func(table, col string, ok map[int64]bool) {
		tb := db.MustTable(table)
		ci, found := tb.ColumnIndex(col)
		if !found {
			t.Fatalf("%s lacks column %s", table, col)
		}
		for r := 0; r < tb.NumRows(); r++ {
			if v := tb.Row(r)[ci].AsInt(); !ok[v] {
				t.Fatalf("%s.%s row %d: dangling id %d", table, col, r, v)
			}
		}
	}

	check("Log", "User", auditIDs)
	check("Log", "Patient", patientIDs)
	check("DeptCodes", "User", auditIDs)
	check("UserMapping", "AuditID", auditIDs)
	check("UserMapping", "CaregiverID", caregiverIDs)
	for _, tb := range []string{"Appointments", "Visits", "Documents", "Labs", "Medications", "Radiology"} {
		check(tb, "Patient", patientIDs)
	}
	check("Appointments", "Doctor", caregiverIDs)
	check("Visits", "Doctor", caregiverIDs)
	check("Documents", "Author", caregiverIDs)
	check("Labs", "OrderedBy", auditIDs)
	check("Labs", "PerformedBy", auditIDs)
	check("Medications", "RequestedBy", auditIDs)
	check("Medications", "SignedBy", auditIDs)
	check("Medications", "AdministeredBy", auditIDs)
	check("Radiology", "OrderedBy", auditIDs)
	check("Radiology", "ReadBy", auditIDs)
}

func TestUserLookupsAndNames(t *testing.T) {
	ds := tinyDS(t)
	u := &ds.Users[0]
	if got := ds.UserByAudit(u.AuditID); got != u {
		t.Error("UserByAudit wrong")
	}
	if got := ds.UserByCaregiver(u.CaregiverID); got != u {
		t.Error("UserByCaregiver wrong")
	}
	if ds.UserByAudit(-1) != nil || ds.UserByCaregiver(-1) != nil {
		t.Error("lookup of absent id returned a user")
	}
	p := &ds.Patients[0]
	if ds.PatientByID(p.ID) != p {
		t.Error("PatientByID wrong")
	}

	if got := ds.UserName(relation.Int(u.AuditID)); got != u.Name {
		t.Errorf("UserName = %q, want %q", got, u.Name)
	}
	if got := ds.CaregiverName(relation.Int(u.CaregiverID)); got != u.Name {
		t.Errorf("CaregiverName = %q", got)
	}
	if got := ds.PatientName(relation.Int(p.ID)); got != p.Name {
		t.Errorf("PatientName = %q", got)
	}
	if got := ds.UserName(relation.Int(-5)); !strings.HasPrefix(got, "user ") {
		t.Errorf("fallback UserName = %q", got)
	}
}

func TestTeamsMixDoctorAndNurseDeptCodes(t *testing.T) {
	ds := tinyDS(t)
	mixed := 0
	for _, team := range ds.Teams {
		hasDoc, hasNurse := false, false
		for _, ui := range team.Members {
			switch ds.Users[ui].Role {
			case ehr.RoleDoctor:
				hasDoc = true
			case ehr.RoleNurse:
				hasNurse = true
			}
		}
		if hasDoc && hasNurse {
			mixed++
			// Doctor and nurse codes must differ (the paper's observation).
			var docCode, nurseCode string
			for _, ui := range team.Members {
				u := ds.Users[ui]
				if u.Role == ehr.RoleDoctor {
					docCode = u.DeptCode
				}
				if u.Role == ehr.RoleNurse {
					nurseCode = u.DeptCode
				}
			}
			if docCode == nurseCode {
				t.Errorf("team %d: doctor and nurse share dept code %q", team.Index, docCode)
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no clinical team with both doctors and nurses")
	}
}

func TestFloatersAndRecordsHaveNoTeam(t *testing.T) {
	ds := tinyDS(t)
	for _, u := range ds.Users {
		if (u.Role == ehr.RoleFloater || u.Role == ehr.RoleRecords) && u.Team != -1 {
			t.Errorf("%s user %s assigned to team %d", u.Role, u.Name, u.Team)
		}
		if u.Role == ehr.RoleDoctor && u.Team == -1 {
			t.Errorf("doctor %s has no team", u.Name)
		}
	}
}

func TestVIPPatientsExist(t *testing.T) {
	ds := tinyDS(t)
	vips := 0
	for _, p := range ds.Patients {
		if p.VIP {
			vips++
		}
	}
	if vips == 0 {
		t.Error("no VIP patients generated")
	}
}

func TestSnoopAccessesTargetVIPs(t *testing.T) {
	ds := tinyDS(t)
	log := ds.Log()
	pi, _ := log.ColumnIndex(pathmodel.LogPatientColumn)
	for r, c := range ds.Causes {
		if c != ehr.CauseSnoop {
			continue
		}
		p := ds.PatientByID(log.Row(r)[pi].AsInt())
		if p == nil || !p.VIP {
			t.Errorf("snoop access row %d targets non-VIP patient", r)
		}
	}
}

func TestScalePresetsOrdered(t *testing.T) {
	tiny, small, medium := ehr.Tiny(), ehr.Small(), ehr.Medium()
	if !(tiny.Patients < small.Patients && small.Patients < medium.Patients) {
		t.Error("patient counts not increasing across presets")
	}
	if !(tiny.Appointments < small.Appointments && small.Appointments < medium.Appointments) {
		t.Error("appointment counts not increasing across presets")
	}
}

func TestEventVolumeRatiosRoughlyCareWeb(t *testing.T) {
	ds := ehr.Generate(ehr.Small())
	appt := ds.DB.MustTable("Appointments").NumRows()
	visits := ds.DB.MustTable("Visits").NumRows()
	meds := ds.DB.MustTable("Medications").NumRows()
	if visits*5 > appt {
		t.Errorf("visits (%d) should be rare relative to appointments (%d)", visits, appt)
	}
	if meds < appt/2 {
		t.Errorf("medications (%d) should rival appointments (%d), as in CareWeb", meds, appt)
	}
}

func TestRoleStrings(t *testing.T) {
	want := map[ehr.Role]string{
		ehr.RoleDoctor: "doctor", ehr.RoleNurse: "nurse", ehr.RoleMedStudent: "med-student",
		ehr.RoleRadiologist: "radiologist", ehr.RoleLabTech: "lab-tech",
		ehr.RolePharmacist: "pharmacist", ehr.RoleFloater: "floater", ehr.RoleRecords: "records",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("Role(%d).String() = %q, want %q", r, r.String(), s)
		}
	}
}

func TestCauseStrings(t *testing.T) {
	want := map[ehr.Cause]string{
		ehr.CauseNone: "none", ehr.CauseSnoop: "snoop", ehr.CauseTreatingDoctor: "treating-doctor",
		ehr.CauseTeam: "team", ehr.CauseFulfiller: "fulfiller", ehr.CauseRepeat: "repeat",
		ehr.CauseFloater: "floater",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Cause(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestSchemaGraphOptions(t *testing.T) {
	full := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	aOnly := ehr.SchemaGraph(ehr.GraphOptions{})
	if len(full.Edges()) <= len(aOnly.Edges()) {
		t.Errorf("full graph (%d edges) not larger than A-only graph (%d)", len(full.Edges()), len(aOnly.Edges()))
	}
	if !full.TableHasSelfJoin("Groups") || !full.TableHasSelfJoin("Log") || !full.TableHasSelfJoin("DeptCodes") {
		t.Error("default options missing self-join allowances")
	}
	if aOnly.TableHasSelfJoin("Groups") {
		t.Error("A-only graph has Groups self-join")
	}
	if !slices.ContainsFunc(full.Edges(), func(e schemagraph.Edge) bool { return e.Via != nil && e.Via.Table == "UserMapping" }) {
		t.Error("no edge bridges through UserMapping")
	}
	// Tables reachable in the A-only graph exclude data set B.
	for _, e := range aOnly.Edges() {
		for _, tb := range []string{e.From.Table, e.To.Table} {
			if tb == "Labs" || tb == "Medications" || tb == "Radiology" {
				t.Errorf("A-only graph mentions %s", tb)
			}
		}
	}
}
