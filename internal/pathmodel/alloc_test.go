package pathmodel_test

import (
	"testing"

	"repro/internal/ehr"
	"repro/internal/pathmodel"
	"repro/internal/schemagraph"
)

// TestAppendAllocs pins what extending a path costs. Over every one-edge
// extension of the default schema graph's start paths, an accepted Append
// allocates at most three times (one copy of each of its slices, with room
// for the edge) and a rejected one never — a rejection is decided before
// anything is copied, including the rejections for a third instance of a
// table and for a malformed self-join edge.
func TestAppendAllocs(t *testing.T) {
	g := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	check := func(p pathmodel.Path, e schemagraph.Edge) bool {
		t.Helper()
		_, ok := p.Append(e)
		allocs := testing.AllocsPerRun(20, func() { p.Append(e) })
		if ok && allocs > 3 || !ok && allocs != 0 {
			t.Errorf("%s + %s (accepted %v): %.1f allocations", p, e, ok, allocs)
		}
		return ok
	}
	accepted, rejected := 0, 0
	for _, s := range g.EdgesFromAttr(pathmodel.StartAttr()) {
		p, ok := pathmodel.Start(s)
		if !ok {
			continue
		}
		for _, e := range g.EdgesFromTable(p.LastAttr().Table) {
			if check(p, e) {
				accepted++
			} else {
				rejected++
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("%d accepted and %d rejected extensions; the schema graph lost its variety", accepted, rejected)
	}

	appt := func(col string) schemagraph.Attr { return schemagraph.Attr{Table: "Appointments", Column: col} }
	p, ok := pathmodel.Start(schemagraph.Edge{From: pathmodel.StartAttr(), To: appt("Patient"), Kind: schemagraph.KeyFK})
	if ok {
		p, ok = p.Append(schemagraph.Edge{From: appt("Doctor"), To: appt("Doctor"), Kind: schemagraph.SelfJoin})
	}
	if !ok {
		t.Fatal("could not build Log -> Appointments -> Appointments")
	}
	third := schemagraph.Edge{From: appt("Patient"), To: appt("Patient"), Kind: schemagraph.KeyFK}
	malformed := schemagraph.Edge{From: appt("Patient"), To: schemagraph.Attr{Table: "Groups", Column: "User"}, Kind: schemagraph.SelfJoin}
	for _, e := range []schemagraph.Edge{third, malformed} {
		if check(p, e) {
			t.Errorf("%s + %s was accepted", p, e)
		}
	}
}
