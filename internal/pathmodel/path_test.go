package pathmodel

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/schemagraph"
)

func attr(t, c string) schemagraph.Attr { return schemagraph.Attr{Table: t, Column: c} }

func edge(from, to schemagraph.Attr) schemagraph.Edge {
	return schemagraph.Edge{From: from, To: to, Kind: schemagraph.KeyFK}
}

func selfJoin(a schemagraph.Attr) schemagraph.Edge {
	return schemagraph.Edge{From: a, To: a, Kind: schemagraph.SelfJoin}
}

var mapBridge = schemagraph.Bridge{Table: "UserMapping", FromColumn: "CaregiverID", ToColumn: "AuditID"}

func bridged(from, to schemagraph.Attr) schemagraph.Edge {
	v := mapBridge
	return schemagraph.Edge{From: from, To: to, Kind: schemagraph.KeyFK, Via: &v}
}

// apptPath builds the canonical length-2 template:
// Log.Patient = A.Patient AND A.Doctor =[map]= Log.User.
func apptPath(t *testing.T) Path {
	t.Helper()
	p, ok := Start(edge(StartAttr(), attr("Appointments", "Patient")))
	if !ok {
		t.Fatal("Start failed")
	}
	p, ok = p.Append(bridged(attr("Appointments", "Doctor"), EndAttr()))
	if !ok {
		t.Fatal("Append failed")
	}
	return p
}

// groupPath builds the length-4 collaborative-group template of Example 4.2.
func groupPath(t *testing.T) Path {
	t.Helper()
	p, ok := Start(edge(StartAttr(), attr("Appointments", "Patient")))
	if !ok {
		t.Fatal("Start failed")
	}
	steps := []schemagraph.Edge{
		bridged(attr("Appointments", "Doctor"), attr("Groups", "User")),
		selfJoin(attr("Groups", "GroupID")),
		edge(attr("Groups", "User"), EndAttr()),
	}
	for _, e := range steps {
		var ok bool
		p, ok = p.Append(e)
		if !ok {
			t.Fatalf("Append(%v) failed", e)
		}
	}
	return p
}

func TestStartRequiresStartAttribute(t *testing.T) {
	if _, ok := Start(edge(attr("Appointments", "Patient"), StartAttr())); ok {
		t.Error("Start accepted an edge not leaving Log.Patient")
	}
	if _, ok := StartAt(edge(StartAttr(), attr("A", "Patient")), LogUserColumn); ok {
		t.Error("StartAt(User) accepted an edge leaving Log.Patient")
	}
	if _, ok := StartAt(edge(StartAttr(), attr("A", "Patient")), "Nope"); ok {
		t.Error("StartAt accepted a bogus start column")
	}
}

func TestApptPathShape(t *testing.T) {
	p := apptPath(t)
	if !p.Closed() || !p.Forward() {
		t.Fatal("appt path should be closed and forward")
	}
	if p.Length() != 2 {
		t.Errorf("Length = %d, want 2 (bridge hop is transparent)", p.Length())
	}
	if p.NumTables() != 2 {
		t.Errorf("NumTables = %d, want 2 (Log + Appointments; mapping excluded)", p.NumTables())
	}
	if got := p.LastAttr(); got != EndAttr() {
		t.Errorf("LastAttr = %v", got)
	}
	if len(p.Edges()) != 2 {
		t.Errorf("Edges = %d", len(p.Edges()))
	}
}

func TestGroupPathShape(t *testing.T) {
	p := groupPath(t)
	if p.Length() != 4 {
		t.Errorf("Length = %d, want 4", p.Length())
	}
	// Log + Appointments + Groups (self-join pair counts once).
	if p.NumTables() != 3 {
		t.Errorf("NumTables = %d, want 3", p.NumTables())
	}
	if p.InstancesOfTable("Groups") != 2 {
		t.Errorf("InstancesOfTable(Groups) = %d, want 2", p.InstancesOfTable("Groups"))
	}
}

func TestAppendRejectsDisconnectedEdge(t *testing.T) {
	p, _ := Start(edge(StartAttr(), attr("Appointments", "Patient")))
	if _, ok := p.Append(edge(attr("Visits", "Doctor"), EndAttr())); ok {
		t.Error("Append accepted an edge from a table not at the growing end")
	}
}

func TestAppendRejectsEntryNodeReuse(t *testing.T) {
	p, _ := Start(edge(StartAttr(), attr("Appointments", "Patient")))
	// Leaving Appointments via Patient again revisits the entry node.
	if _, ok := p.Append(edge(attr("Appointments", "Patient"), attr("Visits", "Patient"))); ok {
		t.Error("Append accepted exit via the entry attribute")
	}
}

func TestAppendRejectsThirdInstance(t *testing.T) {
	p, _ := Start(edge(StartAttr(), attr("Appointments", "Patient")))
	p, ok := p.Append(bridged(attr("Appointments", "Doctor"), attr("Groups", "User")))
	if !ok {
		t.Fatal("setup failed")
	}
	p, ok = p.Append(selfJoin(attr("Groups", "GroupID")))
	if !ok {
		t.Fatal("self-join failed")
	}
	// A third Groups instance is never allowed.
	if _, ok := p.Append(selfJoin(attr("Groups", "GroupID"))); ok {
		t.Error("Append accepted a third instance of Groups")
	}
}

func TestAppendRejectsMalformedSelfJoinEdge(t *testing.T) {
	p, _ := Start(edge(StartAttr(), attr("Appointments", "Patient")))
	bad := schemagraph.Edge{From: attr("Appointments", "Doctor"), To: attr("Groups", "User"), Kind: schemagraph.SelfJoin}
	if _, ok := p.Append(bad); ok {
		t.Error("Append accepted a SelfJoin edge between different attributes")
	}
}

func TestClosedPathRejectsFurtherEdges(t *testing.T) {
	p := apptPath(t)
	if _, ok := p.Append(edge(attr("Log", "User"), attr("DeptCodes", "User"))); ok {
		t.Error("Append extended a closed path")
	}
}

func TestRepeatAccessPathViaLogSelfJoins(t *testing.T) {
	p, ok := Start(selfJoin(StartAttr()))
	if !ok {
		t.Fatal("Start with Log.Patient self-join failed")
	}
	p, ok = p.Append(selfJoin(EndAttr()))
	if !ok {
		t.Fatal("closing via Log.User self-join failed")
	}
	if !p.Closed() || p.Length() != 2 {
		t.Errorf("repeat path closed=%v length=%d", p.Closed(), p.Length())
	}
	if p.NumTables() != 1 {
		t.Errorf("NumTables = %d, want 1 (two Log instances count once)", p.NumTables())
	}
}

func TestBackwardPathAndReverse(t *testing.T) {
	// Backward: Log.User =[map]= Appointments.Doctor; Appointments.Patient = Log.Patient.
	v := *mapBridge.Reversed()
	b, ok := StartAt(schemagraph.Edge{From: EndAttr(), To: attr("Appointments", "Doctor"), Kind: schemagraph.KeyFK, Via: &v}, LogUserColumn)
	if !ok {
		t.Fatal("backward Start failed")
	}
	if b.Forward() {
		t.Error("backward path claims to be forward")
	}
	b, ok = b.Append(edge(attr("Appointments", "Patient"), StartAttr()))
	if !ok {
		t.Fatal("backward close failed")
	}
	if !b.Closed() {
		t.Fatal("backward path not closed")
	}

	fwd := b.Reverse()
	if !fwd.Forward() || !fwd.Closed() {
		t.Fatal("Reverse did not produce a closed forward path")
	}
	want := apptPath(t)
	if fwd.CanonicalKey() != want.CanonicalKey() {
		t.Errorf("Reverse canonical key = %q, want %q", fwd.CanonicalKey(), want.CanonicalKey())
	}
	// Reversal is idempotent on forward paths.
	if fwd.Reverse().Key() != fwd.Key() {
		t.Error("Reverse of a forward path changed it")
	}
}

func TestReversePanicsOnOpenPath(t *testing.T) {
	p, _ := Start(edge(StartAttr(), attr("Appointments", "Patient")))
	defer func() {
		if recover() == nil {
			t.Error("expected panic reversing an open path")
		}
	}()
	p.Reverse()
}

func TestCanonicalKeyInvariantUnderReversal(t *testing.T) {
	p := groupPath(t)
	// Build the same template backward.
	b, ok := StartAt(edge(EndAttr(), attr("Groups", "User")), LogUserColumn)
	if !ok {
		t.Fatal("backward start failed")
	}
	steps := []schemagraph.Edge{
		selfJoin(attr("Groups", "GroupID")),
		{From: attr("Groups", "User"), To: attr("Appointments", "Doctor"), Kind: schemagraph.KeyFK, Via: func() *schemagraph.Bridge { v := *mapBridge.Reversed(); return &v }()},
		edge(attr("Appointments", "Patient"), StartAttr()),
	}
	for _, e := range steps {
		b, ok = b.Append(e)
		if !ok {
			t.Fatalf("backward Append(%v) failed", e)
		}
	}
	if !b.Closed() {
		t.Fatal("backward group path not closed")
	}
	if b.CanonicalKey() != p.CanonicalKey() {
		t.Errorf("canonical keys differ:\n fwd: %s\n bwd: %s", p.CanonicalKey(), b.CanonicalKey())
	}
	// Exact keys differ (different traversal order) — that is the point of
	// canonicalization.
	if b.Key() == p.Key() {
		t.Error("exact keys unexpectedly equal; canonicalization untestable")
	}
}

func TestCanonicalKeyDistinguishesDifferentTemplates(t *testing.T) {
	appt := apptPath(t)
	grp := groupPath(t)
	if appt.CanonicalKey() == grp.CanonicalKey() {
		t.Error("different templates share a canonical key")
	}
	// Open prefix vs closed path must differ too.
	open, _ := Start(edge(StartAttr(), attr("Appointments", "Patient")))
	if open.CanonicalKey() == appt.CanonicalKey() {
		t.Error("open and closed paths share a canonical key")
	}

	// Swapping the audited tuple L with a second Log instance is no
	// renaming: L.Patient -> Visits -> Appointments -> Log2 and L.Patient
	// -> Appointments -> Visits -> Log2 would share a key if it were.
	viaLog2 := func(first, second string) Path {
		p, ok := Start(edge(StartAttr(), attr(first, "Patient")))
		if ok {
			p, ok = p.Append(edge(attr(first, "Doctor"), attr(second, "Doctor")))
		}
		if ok {
			p, ok = p.Append(edge(attr(second, "Patient"), attr(LogTable, LogPatientColumn)))
		}
		if !ok {
			t.Fatalf("could not build %s -> %s -> Log2", first, second)
		}
		return p
	}
	if a, b := viaLog2("Visits", "Appointments"), viaLog2("Appointments", "Visits"); a.CanonicalKey() == b.CanonicalKey() {
		t.Errorf("%s and %s share a canonical key", a, b)
	}
}

func TestSQLRendering(t *testing.T) {
	sql := apptPath(t).SQL()
	for _, want := range []string{
		"SELECT COUNT(DISTINCT L.Lid)",
		"SELECT DISTINCT Patient, Doctor FROM Appointments",
		"L.Patient = Appointments1.Patient",
		"UserMapping",
		"= L.User",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
}

func TestStringRendering(t *testing.T) {
	got := apptPath(t).String()
	want := "L.Patient = Appointments1.Patient AND Appointments1.Doctor =[UserMapping]= L.User"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestRandomWalkInvariants drives random valid path constructions over a
// small schema and checks structural invariants hold for every reachable
// path; closed paths must survive a Reverse round-trip with equal canonical
// keys.
func TestRandomWalkInvariants(t *testing.T) {
	edges := []schemagraph.Edge{
		edge(StartAttr(), attr("A", "Patient")),
		edge(StartAttr(), attr("B", "Patient")),
		edge(attr("A", "Patient"), attr("B", "Patient")),
		edge(attr("B", "Patient"), attr("A", "Patient")),
		bridged(attr("A", "Doctor"), EndAttr()),
		bridged(attr("B", "Doctor"), EndAttr()),
		bridged(attr("A", "Doctor"), attr("G", "User")),
		selfJoin(attr("G", "GroupID")),
		edge(attr("G", "User"), EndAttr()),
		selfJoin(StartAttr()),
		selfJoin(EndAttr()),
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		var p Path
		started := false
		for step := 0; step < 6; step++ {
			e := edges[r.Intn(len(edges))]
			var ok bool
			if !started {
				p, ok = Start(e)
				if !ok {
					continue
				}
				started = true
			} else {
				var np Path
				np, ok = p.Append(e)
				if !ok {
					continue
				}
				p = np
			}
			// Invariants on every reachable path.
			if p.Length() != len(p.Conds()) || p.Length() != len(p.Edges()) {
				t.Fatalf("length bookkeeping broken: %s", p)
			}
			for _, table := range []string{"Log", "A", "B", "G"} {
				if n := p.InstancesOfTable(table); n > 2 {
					t.Fatalf("table %s has %d instances: %s", table, n, p)
				}
			}
			if p.Closed() {
				rev := p.Reverse()
				if rev.CanonicalKey() != p.CanonicalKey() {
					t.Fatalf("reverse changed canonical key:\n  %s\n  %s", p, rev)
				}
				break
			}
		}
	}
}
