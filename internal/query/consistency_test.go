package query_test

import (
	"math/rand"
	"testing"

	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/mine"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// TestSupportEqualsMaskPopcount: for closed paths, Support must equal the
// number of true entries in ExplainedBools; for open paths, the number of
// true entries in ConnectedRows.
func TestSupportEqualsMaskPopcount(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())

	closedPaths := map[string]pathmodel.Path{
		"appt": apptTemplate(t), "dept": deptTemplate(t), "group": groupTemplate(t),
	}
	for name, p := range closedPaths {
		mask := ev.ExplainedBools(p)
		n := 0
		for _, b := range mask {
			if b {
				n++
			}
		}
		if got := ev.Support(p); got != n {
			t.Errorf("%s: Support = %d, mask popcount = %d", name, got, n)
		}
	}

	open := mustPath(t,
		schemagraph.Edge{From: pathmodel.StartAttr(), To: attr("Appointments", "Patient"), Kind: schemagraph.KeyFK})
	mask := ev.ConnectedBools(open)
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	if got := ev.Support(open); got != n {
		t.Errorf("open: Support = %d, mask popcount = %d", got, n)
	}
}

// TestMinedTemplatesAgreeWithNaive runs the full miner over the tiny
// synthetic hospital and differentially re-validates the support of every
// mined template against the naive evaluator — an end-to-end check of the
// whole optimized pipeline.
func TestMinedTemplatesAgreeWithNaive(t *testing.T) {
	ds := ehr.Generate(ehr.Tiny())
	// Mining over the full log; no groups so the naive evaluator stays fast.
	opts := ehr.GraphOptions{DatasetB: true, DeptSelfJoin: true, LogSelfJoins: true}
	g := ehr.SchemaGraph(opts)
	ev := query.NewEvaluator(ds.DB)

	mopt := mine.DefaultOptions()
	mopt.MaxLength = 3
	res, err := mine.Run(mine.AlgoOneWay, ev, g, mopt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Templates) == 0 {
		t.Fatal("no templates mined")
	}
	r := rand.New(rand.NewSource(3))
	checked := 0
	for _, p := range res.Templates {
		// The naive evaluator is O(rows^hops); sample to keep the test fast.
		if r.Intn(3) != 0 && checked >= 5 {
			continue
		}
		if got, want := ev.Support(p), ev.SupportNaive(p); got != want {
			t.Errorf("template %s: Support = %d, naive = %d", p, got, want)
		}
		checked++
	}
	if checked < 5 {
		t.Fatalf("only %d templates checked", checked)
	}
}

// TestHandcraftedSupportAgreesAcrossSeeds differentially validates the three
// support implementations — indexed DISTINCT/semi-join (Support), indexed
// per-row nested join (SupportNaive), and the fully index-free linear-scan
// baseline (SupportScan) — over the complete hand-crafted template catalog
// on three differently seeded hospitals. Because Support and SupportScan
// share no join machinery (and SupportScan never consults the lazy index
// caches), agreement across all three pins down both the DISTINCT
// optimization and the hash-index resolution at once.
func TestHandcraftedSupportAgreesAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := ehr.Tiny()
		cfg.Seed = seed
		ds := ehr.Generate(cfg)
		// Install the Groups table the length-4 group templates join against.
		h := groups.BuildHierarchy(groups.BuildUserGraph(ds.Log()), 8)
		ds.DB.AddTable(h.Table("Groups"))
		ev := query.NewEvaluator(ds.DB)

		for _, tpl := range explain.Handcrafted(true, true).All() {
			pt, ok := tpl.(*explain.PathTemplate)
			if !ok || len(pt.Decorations) > 0 {
				continue // a decorated template is not its bare path
			}
			got := ev.Support(pt.Path)
			if naive := ev.SupportNaive(pt.Path); naive != got {
				t.Errorf("seed %d, %s: Support = %d, SupportNaive = %d", seed, pt.Name(), got, naive)
			}
			if scan := ev.SupportScan(pt.Path); scan != got {
				t.Errorf("seed %d, %s: Support = %d, SupportScan = %d", seed, pt.Name(), got, scan)
			}
		}
	}
}

// TestCloneAgreesWithParent: a cloned cursor shares the engine, so it must
// return identical results to its parent — including when the parent has
// already warmed the lazy table indexes and when it has not — while keeping
// independent statistics counters.
func TestCloneAgreesWithParent(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())
	p := apptTemplate(t)

	clone := ev.Clone()
	if got, want := clone.Support(p), ev.Support(p); got != want {
		t.Errorf("clone Support = %d, parent = %d", got, want)
	}
	if ev.QueriesEvaluated() != 1 || clone.QueriesEvaluated() != 1 {
		t.Errorf("counters not independent: parent=%d clone=%d",
			ev.QueriesEvaluated(), clone.QueriesEvaluated())
	}
	if clone.Database() != ev.Database() || clone.Log() != ev.Log() {
		t.Error("clone does not share the engine")
	}
}

// TestEstimatorMonotonicity: extending a path with another join never
// increases the optimizer estimate by more than the join's worst-case
// fanout, and is usually selective. We assert a weaker, always-true
// property: the estimate of a closed path is never above the estimate of
// its open prefix multiplied by the table size (sanity against wild
// blow-ups) and stays within [0, |log|].
func TestEstimatorSanity(t *testing.T) {
	ev := query.NewEvaluator(figure3DB())
	open := mustPath(t,
		schemagraph.Edge{From: pathmodel.StartAttr(), To: attr("Appointments", "Patient"), Kind: schemagraph.KeyFK})
	closed := apptTemplate(t)

	for _, p := range []pathmodel.Path{open, closed} {
		est := ev.EstimateSupport(p)
		if est < 0 || est > ev.Log().NumRows() {
			t.Errorf("estimate %d out of range", est)
		}
	}
	// A closing equality predicate is selective: the closed estimate should
	// not exceed the open estimate.
	if ev.EstimateSupport(closed) > ev.EstimateSupport(open) {
		t.Errorf("closing the path raised the estimate: %d > %d",
			ev.EstimateSupport(closed), ev.EstimateSupport(open))
	}
}

// TestEmptyLogEvaluation: an empty audited log yields zero support and
// empty masks without panicking.
func TestEmptyLogEvaluation(t *testing.T) {
	db := figure3DB()
	empty := relation.NewTable("Log", "Lid", "Date", "User", "Patient")
	ev := query.NewEvaluatorWithLog(db, empty)

	p := apptTemplate(t)
	if got := ev.Support(p); got != 0 {
		t.Errorf("Support over empty log = %d", got)
	}
	if mask := ev.ExplainedBools(p); len(mask) != 0 {
		t.Errorf("mask length = %d", len(mask))
	}
	dp := pathmodel.NewDecoratedPath(p)
	if got := ev.SupportDecorated(dp); got != 0 {
		t.Errorf("decorated support over empty log = %d", got)
	}
}
