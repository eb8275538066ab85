package schemagraph

import "testing"

func attr(t, c string) Attr { return Attr{Table: t, Column: c} }

func TestAttrString(t *testing.T) {
	if got := attr("Log", "Patient").String(); got != "Log.Patient" {
		t.Errorf("Attr.String() = %q", got)
	}
}

func TestEdgeKindString(t *testing.T) {
	cases := map[EdgeKind]string{KeyFK: "key-fk", Admin: "admin", SelfJoin: "self-join"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("EdgeKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestAddRelationshipProducesBothDirections(t *testing.T) {
	g := NewGraph()
	a, b := attr("Log", "Patient"), attr("Appointments", "Patient")
	g.AddRelationship(a, b, KeyFK)
	if n := len(g.Edges()); n != 2 {
		t.Fatalf("%d edges, want 2", n)
	}
	fwd := g.EdgesFromAttr(a)
	if len(fwd) != 1 || fwd[0].To != b || fwd[0].Kind != KeyFK {
		t.Errorf("EdgesFromAttr(a) = %v", fwd)
	}
	back := g.EdgesFromAttr(b)
	if len(back) != 1 || back[0].To != a {
		t.Errorf("EdgesFromAttr(b) = %v", back)
	}
}

func TestAddRelationshipRejectsSelfJoinKind(t *testing.T) {
	g := NewGraph()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for SelfJoin via AddRelationship")
		}
	}()
	g.AddRelationship(attr("A", "x"), attr("B", "y"), SelfJoin)
}

func TestBridgedRelationship(t *testing.T) {
	g := NewGraph()
	a := attr("Labs", "OrderedBy")      // audit id
	c := attr("Appointments", "Doctor") // caregiver id
	bridge := Bridge{Table: "UserMapping", FromColumn: "AuditID", ToColumn: "CaregiverID"}
	g.AddBridgedRelationship(a, c, KeyFK, bridge)

	fwd := g.EdgesFromAttr(a)
	if len(fwd) != 1 || fwd[0].Via == nil || fwd[0].Via.Table != "UserMapping" || fwd[0].Via.FromColumn != "AuditID" {
		t.Fatalf("forward bridged edge = %+v", fwd)
	}
	back := g.EdgesFromAttr(c)
	if len(back) != 1 || back[0].Via == nil || back[0].Via.FromColumn != "CaregiverID" {
		t.Fatalf("reverse bridged edge = %+v", back)
	}
	// The bridge table is transparent: no edge ends in it.
	for _, e := range g.Edges() {
		if e.From.Table == "UserMapping" || e.To.Table == "UserMapping" {
			t.Errorf("edge %v ends in the bridge table", e)
		}
	}
}

func TestBridgeReversed(t *testing.T) {
	b := &Bridge{Table: "M", FromColumn: "A", ToColumn: "B"}
	r := b.Reversed()
	if r.FromColumn != "B" || r.ToColumn != "A" || r.Table != "M" {
		t.Errorf("Reversed = %+v", r)
	}
	var nilBridge *Bridge
	if nilBridge.Reversed() != nil {
		t.Error("nil.Reversed() != nil")
	}
}

func TestSelfJoins(t *testing.T) {
	g := NewGraph()
	gid := attr("Groups", "GroupID")
	g.AllowSelfJoin(gid)
	g.AllowSelfJoin(gid) // idempotent

	if !g.selfJoinOK[gid] {
		t.Error("allowed attr not recorded")
	}
	if g.selfJoinOK[attr("Groups", "User")] {
		t.Error("unallowed attr reported allowed")
	}
	if !g.TableHasSelfJoin("Groups") || g.TableHasSelfJoin("Log") {
		t.Error("TableHasSelfJoin wrong")
	}
	edges := g.EdgesFromAttr(gid)
	if len(edges) != 1 || edges[0].Kind != SelfJoin || edges[0].To != gid {
		t.Errorf("self-join edge = %v", edges)
	}
}

func TestEdgeLookups(t *testing.T) {
	g := NewGraph()
	g.AddRelationship(attr("Log", "Patient"), attr("Appointments", "Patient"), KeyFK)
	g.AddRelationship(attr("Log", "Patient"), attr("Visits", "Patient"), KeyFK)
	g.AddRelationship(attr("Appointments", "Doctor"), attr("Visits", "Doctor"), Admin)

	if got := len(g.EdgesFromTable("Log")); got != 2 {
		t.Errorf("EdgesFromTable(Log) = %d edges", got)
	}
	if got := len(g.EdgesFromTable("Appointments")); got != 2 {
		t.Errorf("EdgesFromTable(Appointments) = %d edges", got)
	}
	if got := len(g.Edges()); got != 6 {
		t.Errorf("Edges() = %d", got)
	}
}

func TestEdgeString(t *testing.T) {
	e := Edge{From: attr("A", "x"), To: attr("B", "y")}
	if got := e.String(); got != "A.x = B.y" {
		t.Errorf("Edge.String() = %q", got)
	}
	v := Bridge{Table: "M", FromColumn: "a", ToColumn: "b"}
	e.Via = &v
	if got := e.String(); got != "A.x =[via M]= B.y" {
		t.Errorf("bridged Edge.String() = %q", got)
	}
}
