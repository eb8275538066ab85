package query_test

import (
	"testing"

	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/query"
)

// TestExecTracePostingsMatchScanned pins the exec tracer's attribution
// invariant: the per-op Postings counters partition exactly the events
// Evaluator.PostingsScanned counts, so for every catalog path template the
// sum of the trace's Postings across ops equals the cursor's PostingsScanned
// delta over the evaluation. A mismatch means an op consumed postings the
// trace failed to attribute (or double-counted).
func TestExecTracePostingsMatchScanned(t *testing.T) {
	cfg := ehr.Tiny()
	cfg.Seed = 1
	ds := ehr.Generate(cfg)
	h := groups.BuildHierarchy(groups.BuildUserGraph(ds.Log()), 8)
	ds.DB.AddTable(h.Table("Groups"))

	ev := query.NewEvaluator(ds.DB)
	ev.SetExecStats(true)
	sawPostings := false
	for _, tpl := range explain.Handcrafted(true, true).All() {
		pt, ok := tpl.(*explain.PathTemplate)
		if !ok || len(pt.Decorations) > 0 {
			continue // decorated templates evaluate outside the plan cache
		}
		pp := ev.Prepare(pt.Path)
		before := ev.PostingsScanned()
		if n := len(pp.ExplainedBools()); n == 0 {
			t.Fatalf("%s: empty mask", pt.Name())
		}
		delta := int64(ev.PostingsScanned() - before)

		tr := pp.ExecTrace()
		var sum int64
		for _, o := range tr.Ops {
			sum += o.Postings
		}
		if sum != delta {
			t.Errorf("%s: exec trace postings sum = %d, PostingsScanned delta = %d (ops %+v)",
				pt.Name(), sum, delta, tr.Ops)
		}
		if sum > 0 {
			sawPostings = true
		}
	}
	if !sawPostings {
		t.Error("no catalog template consumed postings; the equality check is vacuous")
	}
}

// TestExecTraceDisabledStaysZero pins the default-off contract: without
// SetExecStats(true) an evaluation leaves the plan's exec counters at zero,
// so the disabled path's only cost is the gate check.
func TestExecTraceDisabledStaysZero(t *testing.T) {
	cfg := ehr.Tiny()
	cfg.Seed = 1
	ds := ehr.Generate(cfg)
	ev := query.NewEvaluator(ds.DB)

	tpl := explain.DeptTemplate("appt-same-dept", "Appointments", "an appointment")
	pp := ev.Prepare(tpl.Path)
	if n := len(pp.ExplainedBools()); n == 0 {
		t.Fatal("empty mask")
	}
	for i, o := range pp.ExecTrace().Ops {
		if o.RowsIn != 0 || o.RowsOut != 0 || o.Postings != 0 || o.MemoHits != 0 {
			t.Errorf("op %d accumulated counters with exec stats disabled: %+v", i, o)
		}
	}
}

// TestExecTraceAccumulatesAcrossCursors pins that exec counters land on the
// shared plan entry, not the cursor: a second identical evaluation through a
// Clone cursor exactly doubles every per-op counter (lazy evaluation is
// deterministic, and both cursors flush into the same per-op atomics).
func TestExecTraceAccumulatesAcrossCursors(t *testing.T) {
	cfg := ehr.Tiny()
	cfg.Seed = 2
	ds := ehr.Generate(cfg)
	tpl := explain.DeptTemplate("appt-same-dept", "Appointments", "an appointment")

	ev := query.NewEvaluator(ds.DB)
	ev.SetExecStats(true)
	pp := ev.Prepare(tpl.Path)
	if len(pp.ExplainedBools()) == 0 {
		t.Fatal("empty mask")
	}
	once := pp.ExecTrace().Ops

	cur := ev.Clone().Prepare(tpl.Path)
	if len(cur.ExplainedBools()) == 0 {
		t.Fatal("empty mask on clone")
	}
	twice := pp.ExecTrace().Ops

	if len(once) != len(twice) {
		t.Fatalf("op count changed: %d vs %d", len(once), len(twice))
	}
	for i := range once {
		want := query.OpExec{
			Kind: once[i].Kind, Table: once[i].Table,
			RowsIn: 2 * once[i].RowsIn, RowsOut: 2 * once[i].RowsOut,
			Postings: 2 * once[i].Postings, MemoHits: 2 * once[i].MemoHits,
		}
		if twice[i] != want {
			t.Errorf("op %d after second cursor = %+v, want doubled %+v", i, twice[i], want)
		}
	}
}
