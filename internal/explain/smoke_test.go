package explain_test

import (
	"testing"

	"repro/internal/accesslog"
	"repro/internal/bitset"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/query"
)

// TestEndToEndTinyHospital exercises the whole substrate stack: generate a
// tiny hospital, cluster groups, evaluate hand-crafted templates, and check
// that the headline structural properties of the paper's data hold.
func TestEndToEndTinyHospital(t *testing.T) {
	ds := ehr.Generate(ehr.Tiny())
	log := ds.Log()
	if log.NumRows() == 0 {
		t.Fatal("empty log")
	}

	// Cluster collaborative groups from the full log and install the table.
	g := groups.BuildUserGraph(log)
	h := groups.BuildHierarchy(g, 8)
	ds.DB.AddTable(h.Table(ehr.TableGroups))

	ev := query.NewEvaluator(ds.DB)
	cat := explain.Handcrafted(true, true)

	// Repeat accesses must explain a substantial share of all accesses.
	repeat := fraction(templateMask(ev, cat.RepeatAccess))
	if repeat < 0.3 {
		t.Errorf("repeat-access fraction = %.3f, want >= 0.3", repeat)
	}

	// Events must cover most accesses (paper: ~97%).
	var eventMasks []*bitset.Bits
	for _, ind := range explain.Indicators(true) {
		eventMasks = append(eventMasks, ev.Prepare(ind.Path).ConnectedRows())
	}
	eventAll := fraction(bitset.Union(eventMasks...))
	if eventAll < 0.85 {
		t.Errorf("event coverage = %.3f, want >= 0.85", eventAll)
	}

	// All templates combined must beat the direct w/Dr templates on first
	// accesses by a wide margin: team members are only explained via groups.
	firstDB := accesslog.WithLog(ds.DB, accesslog.FirstAccesses(log))
	fev := query.NewEvaluator(firstDB)

	var withDr []*bitset.Bits
	for _, tm := range cat.SetAWithDr {
		withDr = append(withDr, templateMask(fev, tm))
	}
	drRecall := fraction(bitset.Union(withDr...))

	var all []*bitset.Bits
	for _, tm := range cat.All() {
		all = append(all, templateMask(fev, tm))
	}
	allRecall := fraction(bitset.Union(all...))

	if drRecall >= allRecall {
		t.Errorf("w/Dr recall %.3f >= all-template recall %.3f; groups add nothing", drRecall, allRecall)
	}
	if allRecall < 0.5 {
		t.Errorf("all-template first-access recall = %.3f, want >= 0.5", allRecall)
	}
	t.Logf("all accesses: repeat=%.3f events=%.3f; first accesses: w/Dr=%.3f all=%.3f",
		repeat, eventAll, drRecall, allRecall)
}
