package query_test

import (
	"math/rand"
	"testing"

	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// Identifiers for the paper's Figure 3 example database.
const (
	alice = 1
	bob   = 2
	carol = 3 // extra patient with no appointments

	dave = 10
	mike = 11
	nick = 12 // nurse: no appointments, shares Dave's group
)

// figure3DB builds the running example of the paper (Figure 3) extended
// with a Groups table and a caregiver/audit mapping: Dave and Mike work in
// Pediatrics; Alice had an appointment with Dave, Bob with Mike; the log
// records Dave accessing both records plus extra accesses for testing.
// Caregiver ids are audit ids + 100 to exercise the mapping bridge.
func figure3DB() *relation.Database {
	log := relation.NewTable("Log", "Lid", "Date", "User", "Patient")
	log.Append(relation.Int(1), relation.Date(0), relation.Int(dave), relation.Int(alice))
	log.Append(relation.Int(2), relation.Date(1), relation.Int(dave), relation.Int(bob))
	log.Append(relation.Int(3), relation.Date(1), relation.Int(nick), relation.Int(alice))
	log.Append(relation.Int(4), relation.Date(2), relation.Int(mike), relation.Int(carol))
	log.Append(relation.Int(5), relation.Date(3), relation.Int(dave), relation.Int(alice)) // repeat

	appt := relation.NewTable("Appointments", "Patient", "Date", "Doctor")
	appt.Append(relation.Int(alice), relation.Date(0), relation.Int(dave+100))
	appt.Append(relation.Int(bob), relation.Date(1), relation.Int(mike+100))

	info := relation.NewTable("DoctorInfo", "Doctor", "Dept")
	info.Append(relation.Int(dave+100), relation.String("Pediatrics"))
	info.Append(relation.Int(mike+100), relation.String("Pediatrics"))

	groups := relation.NewTable("Groups", "GroupDepth", "GroupID", "User")
	groups.Append(relation.Int(1), relation.Int(1), relation.Int(dave))
	groups.Append(relation.Int(1), relation.Int(1), relation.Int(nick))
	groups.Append(relation.Int(1), relation.Int(2), relation.Int(mike))

	mapping := relation.NewTable("UserMapping", "AuditID", "CaregiverID")
	for _, u := range []int64{dave, mike, nick} {
		mapping.Append(relation.Int(u), relation.Int(u+100))
	}

	db := relation.NewDatabase()
	db.AddTable(log)
	db.AddTable(appt)
	db.AddTable(info)
	db.AddTable(groups)
	db.AddTable(mapping)
	return db
}

var toAudit = schemagraph.Bridge{Table: "UserMapping", FromColumn: "CaregiverID", ToColumn: "AuditID"}

func attr(t, c string) schemagraph.Attr { return schemagraph.Attr{Table: t, Column: c} }

func mustPath(t *testing.T, edges ...schemagraph.Edge) pathmodel.Path {
	t.Helper()
	p, ok := pathmodel.Start(edges[0])
	if !ok {
		t.Fatalf("Start(%v) failed", edges[0])
	}
	for _, e := range edges[1:] {
		p, ok = p.Append(e)
		if !ok {
			t.Fatalf("Append(%v) failed", e)
		}
	}
	return p
}

// apptTemplate is explanation (A): Log.Patient = A.Patient AND
// A.Doctor =[map]= Log.User.
func apptTemplate(t *testing.T) pathmodel.Path {
	v := toAudit
	return mustPath(t,
		schemagraph.Edge{From: pathmodel.StartAttr(), To: attr("Appointments", "Patient"), Kind: schemagraph.KeyFK},
		schemagraph.Edge{From: attr("Appointments", "Doctor"), To: pathmodel.EndAttr(), Kind: schemagraph.KeyFK, Via: &v},
	)
}

// deptTemplate is explanation (B): via two DoctorInfo instances joined on
// Dept.
func deptTemplate(t *testing.T) pathmodel.Path {
	v := toAudit
	return mustPath(t,
		schemagraph.Edge{From: pathmodel.StartAttr(), To: attr("Appointments", "Patient"), Kind: schemagraph.KeyFK},
		schemagraph.Edge{From: attr("Appointments", "Doctor"), To: attr("DoctorInfo", "Doctor"), Kind: schemagraph.KeyFK},
		schemagraph.Edge{From: attr("DoctorInfo", "Dept"), To: attr("DoctorInfo", "Dept"), Kind: schemagraph.SelfJoin},
		schemagraph.Edge{From: attr("DoctorInfo", "Doctor"), To: pathmodel.EndAttr(), Kind: schemagraph.KeyFK, Via: &v},
	)
}

// groupTemplate is Example 4.2's path through the Groups self-join.
func groupTemplate(t *testing.T) pathmodel.Path {
	v := toAudit
	return mustPath(t,
		schemagraph.Edge{From: pathmodel.StartAttr(), To: attr("Appointments", "Patient"), Kind: schemagraph.KeyFK},
		schemagraph.Edge{From: attr("Appointments", "Doctor"), To: attr("Groups", "User"), Kind: schemagraph.KeyFK, Via: &v},
		schemagraph.Edge{From: attr("Groups", "GroupID"), To: attr("Groups", "GroupID"), Kind: schemagraph.SelfJoin},
		schemagraph.Edge{From: attr("Groups", "User"), To: pathmodel.EndAttr(), Kind: schemagraph.KeyFK},
	)
}

func TestSupportApptTemplate(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())
	p := apptTemplate(t)
	// Explained: L1 and L5 (Alice-Dave). L2 is Dave accessing Bob (Bob's
	// appointment was with Mike), L3 is Nick (no appointment), L4 is Carol
	// (no appointment at all).
	if got := ev.Support(p); got != 2 {
		t.Errorf("Support = %d, want 2", got)
	}
	mask := ev.ExplainedBools(p)
	want := []bool{true, false, false, false, true}
	for i := range want {
		if mask[i] != want[i] {
			t.Errorf("ExplainedBools[%d] = %v, want %v", i, mask[i], want[i])
		}
	}
}

func TestSupportDeptTemplate(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())
	// Dave and Mike share Pediatrics, so Dave accessing Bob (whose
	// appointment was with Mike) is now explained: L1, L2, L5.
	if got := ev.Support(deptTemplate(t)); got != 3 {
		t.Errorf("Support = %d, want 3", got)
	}
}

func TestSupportGroupTemplate(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())
	// Nick shares group 1 with Dave, so Nick's access of Alice (L3) is
	// explained, as are Dave's own (L1, L5). Mike is alone in group 2, and
	// Carol has no appointment: L4 stays unexplained.
	if got := ev.Support(groupTemplate(t)); got != 3 {
		t.Errorf("Support = %d, want 3", got)
	}
}

func TestSupportOpenPath(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())
	open := mustPath(t,
		schemagraph.Edge{From: pathmodel.StartAttr(), To: attr("Appointments", "Patient"), Kind: schemagraph.KeyFK})
	// Rows whose patient has any appointment: L1, L2, L3, L5 (Carol none).
	if got := ev.Support(open); got != 4 {
		t.Errorf("open Support = %d, want 4", got)
	}
	conn := ev.ConnectedBools(open)
	want := []bool{true, true, true, false, true}
	for i := range want {
		if conn[i] != want[i] {
			t.Errorf("ConnectedRows[%d] = %v, want %v", i, conn[i], want[i])
		}
	}
}

func TestConnectedRowsPanicsOnClosed(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ev.ConnectedBools(apptTemplate(t))
}

func TestExplainedRowsPanicsOnOpen(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())
	open := mustPath(t,
		schemagraph.Edge{From: pathmodel.StartAttr(), To: attr("Appointments", "Patient"), Kind: schemagraph.KeyFK})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ev.ExplainedBools(open)
}

func TestSupportMatchesNaiveOnExamples(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())
	for name, p := range map[string]pathmodel.Path{
		"appt":  apptTemplate(t),
		"dept":  deptTemplate(t),
		"group": groupTemplate(t),
		"open": mustPath(t,
			schemagraph.Edge{From: pathmodel.StartAttr(), To: attr("Appointments", "Patient"), Kind: schemagraph.KeyFK}),
	} {
		if got, want := ev.Support(p), ev.SupportNaive(p); got != want {
			t.Errorf("%s: Support = %d, SupportNaive = %d", name, got, want)
		}
	}
}

func TestBackwardOrientationSupportMatchesForward(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())
	fwd := apptTemplate(t)

	// Same template built backward from Log.User.
	v := *toAudit.Reversed()
	b, ok := pathmodel.StartAt(schemagraph.Edge{
		From: pathmodel.EndAttr(), To: attr("Appointments", "Doctor"),
		Kind: schemagraph.KeyFK, Via: &v,
	}, pathmodel.LogUserColumn)
	if !ok {
		t.Fatal("backward start failed")
	}
	b, ok = b.Append(schemagraph.Edge{From: attr("Appointments", "Patient"), To: pathmodel.StartAttr(), Kind: schemagraph.KeyFK})
	if !ok {
		t.Fatal("backward close failed")
	}
	if got, want := ev.Support(b), ev.Support(fwd); got != want {
		t.Errorf("backward Support = %d, forward = %d", got, want)
	}
}

func TestEstimateSupportBounds(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())
	for name, p := range map[string]pathmodel.Path{
		"appt": apptTemplate(t), "dept": deptTemplate(t), "group": groupTemplate(t),
	} {
		est := ev.EstimateSupport(p)
		if est < 0 || est > ev.Log().NumRows() {
			t.Errorf("%s: estimate %d out of [0, %d]", name, est, ev.Log().NumRows())
		}
	}
}

func TestInstancesBindSatisfyingChains(t *testing.T) {
	db := figure3DB()
	ev := query.NewEvaluator(db)
	p := apptTemplate(t)
	// L1 (Dave->Alice) is explained via the single Alice-Dave appointment.
	bindings := ev.Instances(p, 0, 10)
	if len(bindings) != 1 {
		t.Fatalf("Instances = %d bindings, want 1", len(bindings))
	}
	apptRow := bindings[0].Rows[0]
	got := db.MustTable("Appointments").Row(apptRow)
	if got[0] != relation.Int(alice) || got[2] != relation.Int(dave+100) {
		t.Errorf("bound appointment row = %v", got)
	}
	// L4 (Mike->Carol) has no explanation instance.
	if b := ev.Instances(p, 3, 10); len(b) != 0 {
		t.Errorf("Instances for unexplained row = %d bindings", len(b))
	}
}

func TestInstancesLimit(t *testing.T) {
	db := figure3DB()
	// Add a second Alice-Dave appointment: two instances for L1.
	db.MustTable("Appointments").Append(relation.Int(alice), relation.Date(2), relation.Int(dave+100))
	ev := query.NewEvaluator(db)
	p := apptTemplate(t)
	if b := ev.Instances(p, 0, 10); len(b) != 2 {
		t.Errorf("Instances = %d, want 2", len(b))
	}
	if b := ev.Instances(p, 0, 1); len(b) != 1 {
		t.Errorf("Instances with limit 1 = %d", len(b))
	}
	if b := ev.Instances(p, 0, 0); len(b) != 1 {
		t.Errorf("Instances with limit 0 = %d, want clamped to 1", len(b))
	}
}

func TestEvaluatorWithSeparateAuditedLog(t *testing.T) {
	db := figure3DB()
	audited := relation.NewTable("Log", "Lid", "Date", "User", "Patient")
	// A "test day" access: Nick accesses Bob. Bob's appointment is with
	// Mike, who is not in Nick's group, so nothing explains it.
	audited.Append(relation.Int(100), relation.Date(6), relation.Int(nick), relation.Int(bob))
	// And Dave re-accesses Alice: explained by the appointment.
	audited.Append(relation.Int(101), relation.Date(6), relation.Int(dave), relation.Int(alice))

	ev := query.NewEvaluatorWithLog(db, audited)
	mask := ev.ExplainedBools(apptTemplate(t))
	if mask[0] || !mask[1] {
		t.Errorf("audited mask = %v, want [false true]", mask)
	}
	if got := ev.Support(apptTemplate(t)); got != 1 {
		t.Errorf("Support over audited log = %d, want 1", got)
	}
}

// TestSupportMatchesNaiveRandomized is the differential property test:
// on random small databases and random templates from a fixed pool, the
// optimized evaluator and the naive nested-loop evaluator must agree.
func TestSupportMatchesNaiveRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		db := randomDB(r)
		ev := query.NewEvaluator(db)
		for name, p := range map[string]pathmodel.Path{
			"appt": apptTemplate(t), "dept": deptTemplate(t), "group": groupTemplate(t),
		} {
			if got, want := ev.Support(p), ev.SupportNaive(p); got != want {
				t.Fatalf("trial %d %s: Support = %d, naive = %d", trial, name, got, want)
			}
		}
	}
}

// randomDB builds a random database over small id domains with the
// figure3DB schema.
func randomDB(r *rand.Rand) *relation.Database {
	patients := []int64{1, 2, 3, 4}
	users := []int64{10, 11, 12, 13}
	depts := []string{"Peds", "Onc"}

	log := relation.NewTable("Log", "Lid", "Date", "User", "Patient")
	for i := 0; i < 2+r.Intn(20); i++ {
		log.Append(relation.Int(int64(i+1)), relation.Date(r.Intn(4)),
			relation.Int(users[r.Intn(len(users))]), relation.Int(patients[r.Intn(len(patients))]))
	}
	appt := relation.NewTable("Appointments", "Patient", "Date", "Doctor")
	for i := 0; i < r.Intn(8); i++ {
		appt.Append(relation.Int(patients[r.Intn(len(patients))]), relation.Date(r.Intn(4)),
			relation.Int(users[r.Intn(len(users))]+100))
	}
	info := relation.NewTable("DoctorInfo", "Doctor", "Dept")
	for _, u := range users {
		if r.Intn(2) == 0 {
			info.Append(relation.Int(u+100), relation.String(depts[r.Intn(len(depts))]))
		}
	}
	groups := relation.NewTable("Groups", "GroupDepth", "GroupID", "User")
	for _, u := range users {
		groups.Append(relation.Int(1), relation.Int(int64(1+r.Intn(2))), relation.Int(u))
	}
	mapping := relation.NewTable("UserMapping", "AuditID", "CaregiverID")
	for _, u := range users {
		mapping.Append(relation.Int(u), relation.Int(u+100))
	}
	db := relation.NewDatabase()
	db.AddTable(log)
	db.AddTable(appt)
	db.AddTable(info)
	db.AddTable(groups)
	db.AddTable(mapping)
	return db
}

func TestQueryStatsCounters(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())
	if ev.QueriesEvaluated() != 0 || ev.EstimatesIssued() != 0 {
		t.Fatal("fresh evaluator has nonzero counters")
	}
	ev.Support(apptTemplate(t))
	ev.EstimateSupport(apptTemplate(t))
	if ev.QueriesEvaluated() != 1 {
		t.Errorf("QueriesEvaluated = %d", ev.QueriesEvaluated())
	}
	if ev.EstimatesIssued() != 1 {
		t.Errorf("EstimatesIssued = %d", ev.EstimatesIssued())
	}
}
